package sticks

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"riot/internal/cif"
	"riot/internal/geom"
	"riot/internal/rules"
)

const nandSrc = `
# two-input NAND gate, lambda units
STICKS NAND
BBOX 0 0 14 20
WIRE NM 4 0 18 14 18    # VDD rail
WIRE NM 4 0 2 14 2      # GND rail
WIRE ND 2 7 2 7 18
WIRE NP 2 0 8 14 8
WIRE NP 2 0 12 14 12
DEVICE ENH 7 8 V 2 2
DEVICE ENH 7 12 V 2 2
DEVICE DEP 7 16 V 2 2
CONTACT NM ND 7 2
CONTACT NM ND 7 18
CONNECTOR PWRL 0 18 NM 4 left
CONNECTOR PWRR 14 18 NM 4 right
CONNECTOR GNDL 0 2 NM 4 left
CONNECTOR GNDR 14 2 NM 4 right
CONNECTOR A 0 8 NP 2 left
CONNECTOR B 0 12 NP 2 left
CONNECTOR OUT 14 8 NP 2 right
END
`

func mustParse(t *testing.T, src string) *Cell {
	t.Helper()
	c, err := ParseString(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return c
}

func TestParseNAND(t *testing.T) {
	c := mustParse(t, nandSrc)
	if c.Name != "NAND" {
		t.Errorf("name = %q", c.Name)
	}
	if len(c.Wires) != 5 || len(c.Devices) != 3 || len(c.Contacts) != 2 || len(c.Connectors) != 7 {
		t.Errorf("counts: %d wires %d devices %d contacts %d connectors",
			len(c.Wires), len(c.Devices), len(c.Contacts), len(c.Connectors))
	}
	if c.BBox() != geom.R(0, 0, 14, 20) {
		t.Errorf("bbox = %v", c.BBox())
	}
	out, ok := c.ConnectorByName("OUT")
	if !ok || out.At != geom.Pt(14, 8) || out.Layer != geom.NP || out.Side != geom.SideRight {
		t.Errorf("OUT = %+v ok=%v", out, ok)
	}
	if _, ok := c.ConnectorByName("MISSING"); ok {
		t.Error("found ghost connector")
	}
	if c.Devices[2].Kind != Depletion || !c.Devices[2].Vertical {
		t.Errorf("pull-up = %+v", c.Devices[2])
	}
}

func TestComputedBBox(t *testing.T) {
	c := mustParse(t, "STICKS W\nWIRE NM 4 0 0 10 0\nEND\n")
	// metal width 4 centered on the path
	if got := c.BBox(); got != geom.R(-2, -2, 12, 2) {
		t.Errorf("bbox = %v", got)
	}
}

func TestEffWidthDefaults(t *testing.T) {
	cn := Connector{Layer: geom.NM}
	if cn.EffWidth() != rules.MinWidth(geom.NM) {
		t.Errorf("EffWidth = %d", cn.EffWidth())
	}
	cn.Width = 6
	if cn.EffWidth() != 6 {
		t.Errorf("EffWidth = %d", cn.EffWidth())
	}
}

func TestEffUnits(t *testing.T) {
	c := &Cell{Name: "U"}
	if c.EffUnits() != rules.Lambda {
		t.Errorf("default units = %d", c.EffUnits())
	}
	c.Units = 100
	if c.EffUnits() != 100 {
		t.Errorf("units = %d", c.EffUnits())
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"dup connector", "STICKS A\nBBOX 0 0 4 4\nCONNECTOR P 0 0 NM 0 none\nCONNECTOR P 4 4 NM 0 none\nEND\n"},
		{"bad layer", "STICKS A\nBBOX 0 0 4 4\nCONNECTOR P 0 0 NC 0 none\nEND\n"},
		{"off-edge", "STICKS A\nBBOX 0 0 4 4\nCONNECTOR P 2 2 NM 0 left\nEND\n"},
		{"unknown constraint ref", "STICKS A\nBBOX 0 0 4 4\nCONNECTOR P 0 2 NM 0 left\nCONSTRAINT X P Q 3\nEND\n"},
		{"diagonal wire", "STICKS A\nWIRE NM 4 0 0 5 5\nEND\n"},
	}
	for _, c := range cases {
		if _, err := ParseString(c.src); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestParseSyntaxErrors(t *testing.T) {
	cases := []string{
		"WIRE NM 4 0 0 1 1\n",                        // outside block
		"STICKS A\nSTICKS B\nEND\n",                  // nested
		"STICKS A\nWIRE NM x 0 0 1 0\nEND\n",         // bad width
		"STICKS A\nWIRE NM 4 0 0 1\nEND\n",           // odd coords
		"STICKS A\nDEVICE FOO 0 0 H 2 2\nEND\n",      // bad kind
		"STICKS A\nDEVICE ENH 0 0 D 2 2\nEND\n",      // bad orient
		"STICKS A\nDEVICE ENH 0 0 H 0 2\nEND\n",      // zero width
		"STICKS A\nCONNECTOR P 0 0 NM 0 diag\nEND\n", // bad side
		"STICKS A\nCONSTRAINT Z A B 1\nEND\n",        // bad axis
		"STICKS A\nUNITS -5\nEND\n",                  // bad units
		"STICKS A\nFROB 1 2\nEND\n",                  // unknown keyword
		"STICKS A\nWIRE NM 4 0 0 4 0\n",              // missing END
		"STICKS\nEND\n",                              // missing name
	}
	for _, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestWriteRoundTrip(t *testing.T) {
	c1 := mustParse(t, nandSrc)
	c1.Constraints = append(c1.Constraints, Constraint{AxisX, "A", "B", 4}, Constraint{AxisY, "GNDL", "PWRL", 16})
	text := String(c1)
	c2, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Errorf("round trip mismatch\n%s", text)
	}
}

func TestParseAllMultipleCells(t *testing.T) {
	src := "STICKS A\nWIRE NM 4 0 0 4 0\nEND\nSTICKS B\nWIRE NP 2 0 0 0 4\nEND\n"
	cells, err := ParseAll(strings.NewReader(src))
	if err != nil || len(cells) != 2 {
		t.Fatalf("ParseAll = %d cells, %v", len(cells), err)
	}
	if cells[0].Name != "A" || cells[1].Name != "B" {
		t.Errorf("names = %q, %q", cells[0].Name, cells[1].Name)
	}
	var b strings.Builder
	if err := WriteAll(&b, cells); err != nil {
		t.Fatal(err)
	}
	again, err := ParseAll(strings.NewReader(b.String()))
	if err != nil || len(again) != 2 {
		t.Fatalf("WriteAll round trip: %v", err)
	}
}

func TestClone(t *testing.T) {
	c := mustParse(t, nandSrc)
	d := c.Clone()
	d.Wires[0].Points[0] = geom.Pt(999, 999)
	d.Connectors[0].Name = "CHANGED"
	if c.Wires[0].Points[0] == geom.Pt(999, 999) {
		t.Error("Clone shares wire points")
	}
	if c.Connectors[0].Name == "CHANGED" {
		t.Error("Clone shares connectors")
	}
}

func TestToCIF(t *testing.T) {
	c := mustParse(t, nandSrc)
	sym, err := ToCIF(c, 7)
	if err != nil {
		t.Fatal(err)
	}
	if sym.ID != 7 || sym.Name != "NAND" {
		t.Errorf("symbol header = %d %q", sym.ID, sym.Name)
	}
	// 5 wires + 3 devices (2 boxes each + 1 implant) + 2 contacts (3 each) + 7 connectors
	wantMin := 5 + 3*2 + 1 + 2*3 + 7
	if len(sym.Elements) != wantMin {
		t.Errorf("elements = %d, want %d", len(sym.Elements), wantMin)
	}
	// wire coordinates scaled to centimicrons
	w := sym.Elements[0].(cif.Wire)
	if w.Width != 4*rules.Lambda || w.Points[1] != geom.Pt(14*rules.Lambda, 18*rules.Lambda) {
		t.Errorf("scaled wire = %+v", w)
	}
	// connectors present with scaled widths
	f := &cif.File{Symbols: []*cif.Symbol{sym}}
	found := 0
	for _, cn := range sym.Connectors() {
		if cn.Name == "OUT" {
			found++
			if cn.At != geom.Pt(14*rules.Lambda, 8*rules.Lambda) {
				t.Errorf("OUT at %v", cn.At)
			}
		}
	}
	if found != 1 {
		t.Errorf("OUT connectors = %d", found)
	}
	// the CIF is structurally valid: bbox computes and file writes/parses
	if _, err := f.SymbolBBox(7); err != nil {
		t.Errorf("bbox: %v", err)
	}
	if _, err := cif.ParseString(cif.String(f)); err != nil {
		t.Errorf("emitted CIF does not parse: %v", err)
	}
}

func TestToCIFDepletionImplant(t *testing.T) {
	c := mustParse(t, "STICKS D\nDEVICE DEP 10 10 H 2 2\nEND\n")
	sym, err := ToCIF(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	hasImplant := false
	for _, e := range sym.Elements {
		if b, ok := e.(cif.Box); ok && b.Layer == geom.NI {
			hasImplant = true
		}
	}
	if !hasImplant {
		t.Error("depletion device missing implant box")
	}
}

func TestToCIFRejectsBadDevice(t *testing.T) {
	c := &Cell{Name: "BAD", Devices: []Device{{Kind: Enhancement, W: 2, L: 1}}}
	if _, err := ToCIF(c, 1); err == nil {
		t.Error("accepted sub-minimum channel length")
	}
}

func TestDeviceBoxesGeometry(t *testing.T) {
	gate, chanr, implant, err := DeviceBoxes(Device{Kind: Enhancement, At: geom.Pt(10, 10), Vertical: true, W: 2, L: 2})
	if err != nil {
		t.Fatal(err)
	}
	// vertical device: gate is horizontal poly crossing vertical diffusion
	if gate.W() <= gate.H() {
		t.Errorf("vertical device gate should be wide: %v", gate)
	}
	if chanr.H() <= chanr.W() {
		t.Errorf("vertical device channel should be tall: %v", chanr)
	}
	if !implant.ContainsRect(gate) {
		t.Errorf("implant %v does not cover gate %v", implant, gate)
	}
	// channel and gate must overlap (that is the transistor)
	if gate.Intersect(chanr).Empty() {
		t.Error("gate does not cross channel")
	}
}

// Property-style test: random valid cells round-trip through text.
func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	layers := []geom.Layer{geom.NM, geom.NP, geom.ND}
	sides := []geom.Side{geom.SideLeft, geom.SideRight, geom.SideBottom, geom.SideTop, geom.SideNone}
	for trial := 0; trial < 40; trial++ {
		c := &Cell{Name: "T", Units: 250, Box: geom.R(0, 0, 100, 100), HasBox: true}
		for i := 0; i < 1+rng.Intn(5); i++ {
			n := 2 + rng.Intn(3)
			pts := make([]geom.Point, n)
			x, y := rng.Intn(90), rng.Intn(90)
			pts[0] = geom.Pt(x, y)
			for j := 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					x = rng.Intn(90)
				} else {
					y = rng.Intn(90)
				}
				pts[j] = geom.Pt(x, y)
			}
			c.Wires = append(c.Wires, Wire{Layer: layers[rng.Intn(3)], Width: rng.Intn(5), Points: pts})
		}
		for i := 0; i < rng.Intn(3); i++ {
			c.Devices = append(c.Devices, Device{
				Kind: DeviceKind(rng.Intn(2)), At: geom.Pt(10+rng.Intn(80), 10+rng.Intn(80)),
				Vertical: rng.Intn(2) == 0, W: 2 + rng.Intn(4), L: 2 + rng.Intn(2),
			})
		}
		side := sides[rng.Intn(len(sides))]
		at := geom.Pt(50, 50)
		switch side {
		case geom.SideLeft:
			at = geom.Pt(0, 50)
		case geom.SideRight:
			at = geom.Pt(100, 50)
		case geom.SideBottom:
			at = geom.Pt(50, 0)
		case geom.SideTop:
			at = geom.Pt(50, 100)
		}
		c.Connectors = append(c.Connectors, Connector{Name: "P", At: at, Layer: geom.NM, Width: rng.Intn(5), Side: side})
		text := String(c)
		c2, err := ParseString(text)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, text)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("trial %d: mismatch\n%s", trial, text)
		}
	}
}
