package lib

import (
	"testing"

	"riot/internal/compact"
	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/rules"
	"riot/internal/sticks"
)

func TestAllSticksCellsValidate(t *testing.T) {
	for _, c := range []*sticks.Cell{SRCell(), NAND(), OR4(),
		PipeFitting("PM", geom.NM, 4), PipeFitting("PP", geom.NP, 0)} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestAllSticksCellsConvertToCIF(t *testing.T) {
	for _, c := range []*sticks.Cell{SRCell(), NAND(), OR4()} {
		if _, err := sticks.ToCIF(c, 1); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestAllSticksCellsCompact(t *testing.T) {
	// every library cell must survive the stick optimizer on both axes
	// (i.e. be stretchable, as the paper requires of REST cells)
	for _, c := range []*sticks.Cell{SRCell(), NAND(), OR4()} {
		for _, axis := range []sticks.Axis{sticks.AxisX, sticks.AxisY} {
			if _, err := compact.Compact(c, axis); err != nil {
				t.Errorf("%s axis %v: %v", c.Name, axis, err)
			}
		}
	}
}

func TestSRCellAbutsInArray(t *testing.T) {
	// chain connector heights must match across the cell so the array
	// abuts: OUT at the same y as IN, rails aligned left/right
	c := SRCell()
	in, _ := c.ConnectorByName("IN")
	out, _ := c.ConnectorByName("OUT")
	if in.At.Y != out.At.Y {
		t.Errorf("IN y=%d OUT y=%d", in.At.Y, out.At.Y)
	}
	for _, pair := range [][2]string{{"PWRL", "PWRR"}, {"GNDL", "GNDR"}} {
		a, _ := c.ConnectorByName(pair[0])
		b, _ := c.ConnectorByName(pair[1])
		if a.At.Y != b.At.Y {
			t.Errorf("%s/%s misaligned: %d vs %d", pair[0], pair[1], a.At.Y, b.At.Y)
		}
		if a.Layer != b.Layer || a.Width != b.Width {
			t.Errorf("%s/%s rail mismatch", pair[0], pair[1])
		}
	}
	// clock pass-through: top and bottom clock connectors at the same x
	p1, _ := c.ConnectorByName("PHI1")
	p1b, _ := c.ConnectorByName("PHI1B")
	if p1.At.X != p1b.At.X {
		t.Error("PHI1 does not pass through vertically")
	}
}

func TestConnectorPitchRoutable(t *testing.T) {
	// connectors on each edge must be at least a pitch apart per layer
	// so the river router's verifier accepts them
	for _, c := range []*sticks.Cell{SRCell(), NAND(), OR4()} {
		bySide := map[geom.Side][]sticks.Connector{}
		for _, cn := range c.Connectors {
			bySide[cn.Side] = append(bySide[cn.Side], cn)
		}
		for side, conns := range bySide {
			for i, a := range conns {
				for _, b := range conns[i+1:] {
					if a.Layer != b.Layer {
						continue
					}
					var d int
					if side.Vertical() {
						d = abs(a.At.X - b.At.X)
					} else {
						d = abs(a.At.Y - b.At.Y)
					}
					if d < rules.Pitch(a.Layer) {
						t.Errorf("%s: %s and %s only %d apart on %v", c.Name, a.Name, b.Name, d, side)
					}
				}
			}
		}
	}
}

func TestPadFile(t *testing.T) {
	f := PadFile()
	for _, name := range []string{"PADIN", "PADOUT"} {
		sym := f.SymbolByName(name)
		if sym == nil {
			t.Fatalf("%s missing", name)
		}
		cs := sym.Connectors()
		if len(cs) != 1 || cs[0].Name != "P" {
			t.Errorf("%s connectors = %+v", name, cs)
		}
		// connector on the lambda grid
		if cs[0].At.X%rules.Lambda != 0 || cs[0].At.Y%rules.Lambda != 0 {
			t.Errorf("%s connector off grid: %v", name, cs[0].At)
		}
		box, err := f.SymbolBBox(sym.ID)
		if err != nil || box.Empty() {
			t.Errorf("%s bbox: %v %v", name, box, err)
		}
	}
}

func TestCellsAndInstall(t *testing.T) {
	cells, err := Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 7 {
		t.Errorf("cells = %d", len(cells))
	}
	d := core.NewDesign()
	if err := Install(d); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"SRCELL", "NAND", "OR4", "PADIN", "PADOUT", "PIPEM", "PIPEP"} {
		if _, ok := d.Cell(name); !ok {
			t.Errorf("library cell %s not installed", name)
		}
	}
}

func TestFilesRoundTrip(t *testing.T) {
	files, err := Files()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pads.cif", "srcell.sticks", "nand.sticks", "or4.sticks"} {
		if len(files[name]) == 0 {
			t.Errorf("%s empty", name)
		}
	}
}

// TestFilesAreCopies pins that the once-rendered library reaches each
// caller as its own copy: a write into one call's map or an in-place
// change to one of its files shows in no later call.
func TestFilesAreCopies(t *testing.T) {
	a, err := Files()
	if err != nil {
		t.Fatal(err)
	}
	want := string(a["srcell.sticks"])
	a["srcell.sticks"][0] ^= 0xff
	a["extra.sticks"] = []byte("x")
	b, err := Files()
	if err != nil {
		t.Fatal(err)
	}
	if got := string(b["srcell.sticks"]); got != want {
		t.Errorf("a change to one call's file shows in the next call's")
	}
	if _, ok := b["extra.sticks"]; ok || len(b) != len(a)-1 {
		t.Errorf("a write into one call's map shows in the next call's: %d files, want %d", len(b), len(a)-1)
	}
}

func TestPipeFittingTurnsCorner(t *testing.T) {
	p := PipeFitting("P", geom.NM, 4)
	a, _ := p.ConnectorByName("A")
	b, _ := p.ConnectorByName("B")
	if a.Side != geom.SideLeft || b.Side != geom.SideTop {
		t.Errorf("pipe sides: %v, %v", a.Side, b.Side)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
