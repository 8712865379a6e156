package filter

import (
	"crypto/sha256"
	"fmt"
	"io"
	"testing"

	"riot/internal/cif"
	"riot/internal/core"
	"riot/internal/geom"
)

func TestBuildLogicRouted(t *testing.T) {
	d, logic, st, err := BuildLogic(Routed)
	if err != nil {
		t.Fatal(err)
	}
	if st.RouteCells != 2 {
		t.Errorf("route cells = %d, want 2 (one channel per row gap)", st.RouteCells)
	}
	if st.ChannelHeight == 0 {
		t.Error("no channel height recorded")
	}
	// connectivity: every NAND A touches its register tap through the
	// route cell; verify the route floor connectors meet the taps
	sr, _ := logic.InstanceByName("sr")
	nr, _ := logic.InstanceByName("nr")
	for i := 0; i < 4; i++ {
		tap, err := sr.Connector(tapName(i))
		if err != nil {
			t.Fatal(err)
		}
		_ = tap
	}
	if sr == nil || nr == nil {
		t.Fatal("instances missing")
	}
	// the route cells are in the cell menu
	names := d.CellNames()
	routes := 0
	for _, n := range names {
		c, _ := d.Cell(n)
		if c.Kind == core.LeafSticks && len(n) >= 5 && n[:5] == "ROUTE" {
			routes++
		}
	}
	if routes != 2 {
		t.Errorf("route cells in menu = %d", routes)
	}
}

func tapName(i int) string { return "TAP[" + string(rune('0'+i)) + "]" }

func TestBuildLogicStretched(t *testing.T) {
	_, logic, st, err := BuildLogic(Stretched)
	if err != nil {
		t.Fatal(err)
	}
	if st.RouteCells != 0 {
		t.Errorf("stretched variant made %d route cells", st.RouteCells)
	}
	// the stretched NANDs tile under the register array: each abuts
	// its neighbors and the register row
	sr, _ := logic.InstanceByName("sr")
	srBox := sr.BBox()
	for i := 0; i < 4; i++ {
		ni, ok := logic.InstanceByName("n" + string(rune('0'+i)))
		if !ok {
			t.Fatalf("n%d missing", i)
		}
		nb := ni.BBox()
		if nb.Max.Y != srBox.Min.Y {
			t.Errorf("n%d does not abut the register row: %v vs %v", i, nb, srBox)
		}
		if i > 0 {
			prev, _ := logic.InstanceByName("n" + string(rune('0'+i-1)))
			if prev.BBox().Max.X != nb.Min.X {
				t.Errorf("n%d does not tile against n%d: %v vs %v", i, i-1, nb, prev.BBox())
			}
		}
		// the A input coincides with the tap
		a, err := ni.Connector("A")
		if err != nil {
			t.Fatal(err)
		}
		tap, err := sr.Connector(tapName(i))
		if err != nil {
			t.Fatal(err)
		}
		if a.At != tap.At {
			t.Errorf("n%d.A %v does not meet %s %v", i, a.At, tapName(i), tap.At)
		}
	}
	// the OR gate abuts the NAND row with its inputs on the NAND
	// outputs
	orr, _ := logic.InstanceByName("orr")
	n0, _ := logic.InstanceByName("n0")
	if orr.BBox().Max.Y != n0.BBox().Min.Y {
		t.Errorf("OR does not abut the NAND row: %v vs %v", orr.BBox(), n0.BBox())
	}
	for i := 0; i < 4; i++ {
		ni, _ := logic.InstanceByName("n" + string(rune('0'+i)))
		out, _ := ni.Connector("OUT")
		in, err := orr.Connector("IN" + string(rune('0'+i)))
		if err != nil {
			t.Fatal(err)
		}
		if out.At != in.At {
			t.Errorf("OR.IN%d %v does not meet n%d.OUT %v", i, in.At, i, out.At)
		}
	}
}

// TestFig9AreaClaim is the paper's headline observation: "the designer
// may save area by stretching the gates, eliminating the routing area
// ... The important space savings is in the vertical direction since
// no routing channels are needed to connect the NAND and OR gates."
func TestFig9AreaClaim(t *testing.T) {
	_, _, routed, err := BuildLogic(Routed)
	if err != nil {
		t.Fatal(err)
	}
	_, _, stretched, err := BuildLogic(Stretched)
	if err != nil {
		t.Fatal(err)
	}
	if stretched.LogicHeight >= routed.LogicHeight {
		t.Errorf("stretched height %d >= routed height %d", stretched.LogicHeight, routed.LogicHeight)
	}
	// the height difference is exactly the channel height the routed
	// version spends (up to the internal stretching slack the paper
	// itself notes is "wasted inside the cells")
	saved := routed.LogicHeight - stretched.LogicHeight
	if saved <= 0 || saved > routed.ChannelHeight {
		t.Errorf("vertical saving %d outside (0, %d]", saved, routed.ChannelHeight)
	}
	t.Logf("routed: %dλ tall (channels %dλ); stretched: %dλ tall; saved %dλ",
		routed.LogicHeight, routed.ChannelHeight, stretched.LogicHeight, saved)
}

func TestBuildChipBothVariants(t *testing.T) {
	for _, variant := range []Variant{Routed, Stretched} {
		d, chip, cst, err := BuildChip(variant)
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		if cst.PadCount != 4 {
			t.Errorf("%v: pads = %d", variant, cst.PadCount)
		}
		if cst.Routes != 4 {
			t.Errorf("%v: pad routes = %d", variant, cst.Routes)
		}
		if cst.ChipArea <= cst.Logic.LogicArea {
			t.Errorf("%v: chip area %d not larger than logic area %d", variant, cst.ChipArea, cst.Logic.LogicArea)
		}
		// the chip exports as CIF for mask generation
		f, err := core.ExportCIF(chip)
		if err != nil {
			t.Fatalf("%v: export: %v", variant, err)
		}
		if len(f.Symbols) < 8 {
			t.Errorf("%v: only %d symbols exported", variant, len(f.Symbols))
		}
		_ = d
	}
}

// TestChipCIFPinned pins the exported mask file of both figure-10
// chips byte for byte: connector names and order, geometry and the
// CIF writer's formatting all show in it.
func TestChipCIFPinned(t *testing.T) {
	for _, tc := range []struct {
		variant Variant
		size    int
		sha     string
	}{
		{Stretched, 8249, "d909ef50641c5c86657cc82235c4b4ab3e151067f69aca1c50c66f6c3758a209"},
		{Routed, 7275, "2f8d0ef2604049c6cedd575ff64a2b41109c7276fa7ed6e0033749632280e94a"},
	} {
		_, chip, _, err := BuildChip(tc.variant)
		if err != nil {
			t.Fatalf("%v: %v", tc.variant, err)
		}
		f, err := core.ExportCIF(chip)
		if err != nil {
			t.Fatalf("%v: export: %v", tc.variant, err)
		}
		text := cif.String(f)
		if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); len(text) != tc.size || sum != tc.sha {
			t.Errorf("%v chip exports %d bytes, sha256 %s; want %d bytes, sha256 %s", tc.variant, len(text), sum, tc.size, tc.sha)
		}
	}
}

// BenchmarkExportCIF converts each figure-10 chip to CIF and writes
// it out, the export half of riotbench's assemble_fig10 op.
func BenchmarkExportCIF(b *testing.B) {
	for _, variant := range []Variant{Stretched, Routed} {
		b.Run(variant.String(), func(b *testing.B) {
			_, chip, _, err := BuildChip(variant)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := core.ExportCIF(chip)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := f.WriteTo(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestChipLeafCount(t *testing.T) {
	_, chip, _, err := BuildChip(Routed)
	if err != nil {
		t.Fatal(err)
	}
	// 4 SR + 4 NAND + 1 OR + 4 pads + route cells
	if n := chip.CountLeaves(); n < 13 {
		t.Errorf("leaf placements = %d", n)
	}
}

func TestVariantString(t *testing.T) {
	if Routed.String() != "routed" || Stretched.String() != "stretched" {
		t.Error("variant names wrong")
	}
}

func TestStatsGeometrySane(t *testing.T) {
	_, logic, st, err := BuildLogic(Routed)
	if err != nil {
		t.Fatal(err)
	}
	if st.LogicBox != logic.BBox() {
		t.Error("stats box mismatch")
	}
	if st.LogicArea != (st.LogicBox.W()/l)*(st.LogicBox.H()/l) {
		t.Error("area arithmetic wrong")
	}
	if st.LogicBox.W() < 64*l {
		t.Errorf("logic narrower than the register array: %v", st.LogicBox)
	}
	_ = geom.Rect{}
}
