package lvs

import (
	"testing"

	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/sticks"
)

// Deep-abutment regression tests: the seam trust used to reach a fixed
// 4 lambda into each cell, so an ABUT OVERLAP deeper than that
// connected material the reference could not see and was mis-reported
// as a short. The reach is now derived per seam from the actual
// overlap depth of the two placed boxes.

// deepPair builds a two-cell editor: REACHER's metal bar spans its
// whole cell and pokes into DEEP's box, which is placed overlapping by
// 10 lambda. stubLo/stubHi place DEEP's interior metal stub in
// cell-local lambda; the contact with the bar happens wherever the
// stub lands under the overlap.
func deepPair(t *testing.T, stubLo, stubHi int) *core.Editor {
	t.Helper()
	reacher := &sticks.Cell{
		Name:   "REACHER",
		HasBox: true,
		Box:    geom.R(0, 0, 20, 20),
		Wires:  []sticks.Wire{{Layer: geom.NM, Points: []geom.Point{geom.Pt(0, 10), geom.Pt(20, 10)}}},
		Connectors: []sticks.Connector{
			{Name: "P", At: geom.Pt(0, 10), Layer: geom.NM, Side: geom.SideLeft},
		},
	}
	deep := &sticks.Cell{
		Name:   "DEEP",
		HasBox: true,
		Box:    geom.R(0, 0, 20, 20),
		Wires:  []sticks.Wire{{Layer: geom.NM, Points: []geom.Point{geom.Pt(stubLo, 10), geom.Pt(stubHi, 10)}}},
		Connectors: []sticks.Connector{
			{Name: "Q", At: geom.Pt(stubLo, 10), Layer: geom.NM},
		},
	}
	d := core.NewDesign()
	for _, sc := range []*sticks.Cell{reacher, deep} {
		cell, err := core.NewLeafFromSticks(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if err := d.AddCell(cell); err != nil {
			t.Fatal(err)
		}
	}
	top := core.NewComposition("OVER")
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEditor(d, top)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateInstance("REACHER", "a", geom.MakeTransform(geom.R0, geom.Pt(0, 0)), 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	// DEEP overlaps REACHER by 10 lambda: an ABUT OVERLAP far past the
	// base 4-lambda seam trust
	if _, err := e.CreateInstance("DEEP", "b", geom.MakeTransform(geom.R0, geom.Pt(10*lam, 0)), 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDeepAbutOverlapClean: the bar meets a stub buried 8 lambda
// inside the overlapped cell — deeper than the old fixed trust reach,
// which mis-reported this sanctioned contact as a short. The layout
// joins a.P and b.Q into one net; the reference must too.
func TestDeepAbutOverlapClean(t *testing.T) {
	// stub at local x 8..12: contact with the bar at local depth 8..10,
	// and the stub lies wholly outside the old 4-lambda boundary band
	e := deepPair(t, 8, 12)
	res, err := scratchEditor(e)
	mustClean(t, res, err, "deep overlap (8-lambda-deep contact)")
}

// TestDeepAbutOverlapShallowContactStaysClean is the clean-by-luck
// regression: the overlap is just as deep (10 lambda), but the contact
// material happens to sit inside the old 4-lambda band, so the old
// code verified it clean by accident. The per-seam reach must keep it
// clean.
func TestDeepAbutOverlapShallowContactStaysClean(t *testing.T) {
	// stub at local x 0..4: within the old band, still under the overlap
	e := deepPair(t, 0, 4)
	res, err := scratchEditor(e)
	mustClean(t, res, err, "deep overlap (shallow contact)")
}

// TestDeepAbutOverlapWasSpuriousShort documents the fixed failure
// mode at the unit level: with the per-seam reach, the seam must read
// DEEP's interior stub when the neighbor overlaps 10 lambda deep, and
// the stitched reference must carry a.P and b.Q on one net exactly
// like the layout.
func TestDeepAbutOverlapWasSpuriousShort(t *testing.T) {
	e := deepPair(t, 8, 12)
	var rf Reference
	ref, err := rf.Netlist(e.Cell, nil)
	if err != nil {
		t.Fatal(err)
	}
	np, okP := ref.Labels["a.P"]
	nq, okQ := ref.Labels["b.Q"]
	if !okP || !okQ {
		t.Fatalf("reference labels missing: %v", ref.Labels)
	}
	if np != nq {
		t.Fatalf("reference keeps a.P (net %d) and b.Q (net %d) apart; the 10-lambda ABUT OVERLAP sanctions the contact", np, nq)
	}
}
