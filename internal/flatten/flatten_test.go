package flatten

import (
	"testing"

	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/rules"
)

func libDesign(t *testing.T) *core.Design {
	t.Helper()
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		t.Fatal(err)
	}
	return d
}

func srArray(t *testing.T, d *core.Design, nx, ny int) *core.Cell {
	t.Helper()
	top := core.NewComposition("TOP")
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	sr, ok := d.Cell("SRCELL")
	if !ok {
		t.Fatal("no SRCELL")
	}
	in := core.NewInstance("a", sr, geom.Identity)
	in.Nx, in.Ny = nx, ny
	in.Sx, in.Sy = 20*rules.Lambda, 24*rules.Lambda
	top.Instances = append(top.Instances, in)
	return top
}

// TestOccurrenceProvenance: Src ids are dense, count the leaf
// occurrences, and every occurrence's shapes lie near its recorded
// box.
func TestOccurrenceProvenance(t *testing.T) {
	d := libDesign(t)
	top := srArray(t, d, 3, 2)
	fr, err := Cell(top)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.SrcBoxes) != 6 {
		t.Fatalf("occurrences = %d, want 6", len(fr.SrcBoxes))
	}
	seen := map[int]bool{}
	for _, s := range fr.Shapes {
		if s.Src < 0 || s.Src >= len(fr.SrcBoxes) {
			t.Fatalf("shape src %d out of range", s.Src)
		}
		seen[s.Src] = true
		// sticks geometry may overhang its declared box by up to a wire
		// width; a contact-size margin covers the library cells
		margin := rules.ContactSize * rules.Lambda
		if !fr.SrcBoxes[s.Src].Inset(-margin).ContainsRect(s.R) {
			t.Fatalf("shape %v strays from its occurrence box %v", s.R, fr.SrcBoxes[s.Src])
		}
	}
	if len(seen) != 6 {
		t.Errorf("shapes reference %d occurrences, want 6", len(seen))
	}
}

// TestPerLayerViews: LayerRects/LayerSrcs partition the shape list in
// order, and LayerIndex answers point queries consistently with the
// slices.
func TestPerLayerViews(t *testing.T) {
	d := libDesign(t)
	nand, _ := d.Cell("NAND")
	fr, err := Cell(nand)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, l := range fr.Layers() {
		rects := fr.LayerRects(l)
		srcs := fr.LayerSrcs(l)
		if len(rects) != len(srcs) {
			t.Fatalf("%v: %d rects vs %d srcs", l, len(rects), len(srcs))
		}
		total += len(rects)
		ix := fr.LayerIndex(l)
		if ix.Len() != len(rects) {
			t.Fatalf("%v: index holds %d of %d rects", l, ix.Len(), len(rects))
		}
		for id, r := range rects {
			found := false
			ix.QueryPoint(r.Center(), func(got int) bool {
				if got == id {
					found = true
					return false
				}
				return true
			})
			if !found {
				t.Fatalf("%v: rect %d not found at its own center", l, id)
			}
		}
	}
	if total != len(fr.Shapes) {
		t.Errorf("per-layer views cover %d of %d shapes", total, len(fr.Shapes))
	}
	// layer order is sorted and stable
	layers := fr.Layers()
	for i := 1; i < len(layers); i++ {
		if layers[i-1] >= layers[i] {
			t.Errorf("layers not sorted: %v", layers)
		}
	}
}

// TestLabels: a composition's label sites are its instance connectors,
// each at its placed point: naming a table that holds every site's own
// index finds each wanted label at the site whose point is the
// instance connector's.
func TestLabels(t *testing.T) {
	d := libDesign(t)
	top := srArray(t, d, 2, 1)
	fr, err := Cell(top)
	if err != nil {
		t.Fatal(err)
	}
	tab := make([]int32, len(fr.Labels))
	for s := range tab {
		tab[s] = int32(s)
	}
	names := core.LabelMap(top, tab)
	if len(names) != len(fr.Labels) {
		t.Errorf("%d names over %d sites", len(names), len(fr.Labels))
	}
	for _, want := range []string{"a.IN[0]", "a.OUT[1]", "a.PWRL[0]", "a.TAP[0]"} {
		s, ok := names[want]
		if !ok {
			t.Errorf("label %s missing", want)
			continue
		}
		ic, err := top.Instances[0].Connector(want[len("a."):])
		if err != nil {
			t.Fatal(err)
		}
		if got := fr.Labels[s]; got.At != ic.At || got.Layer != ic.Layer {
			t.Errorf("label %s at site %d is %v, connector at %v on %v", want, s, got, ic.At, ic.Layer)
		}
	}
}
