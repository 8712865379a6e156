package hier

import (
	"fmt"
	"reflect"
	"testing"

	"riot/internal/cif"
	"riot/internal/core"
	"riot/internal/extract"
	"riot/internal/faultinject"
	"riot/internal/geom"
	"riot/internal/obs"
	"riot/internal/rules"
)

// ncutLeaf builds a CIF leaf NCUT whose one contact needs placement
// context: a 6 lambda metal plate over a 4 lambda poly square, joined
// by a 2 lambda NC cut at their common center (a LayerNone join, "any
// layer below the cut"), plus a 2 lambda poly strip along the top that
// runs 26 lambda to the right. Arrayed at a 20 lambda pitch, each
// copy's strip overlaps its right neighbour's and its material box
// covers that neighbour's cut, where it has no material of its own: the
// lowest occurrence holding the cut point is the wrong one to ask. The
// plate surrounds its cut on every side, so each copy keeps its
// surround and the array is clean. Connector M sits on the plate at
// the left edge, S on the strip at the right edge, and Z, with no
// layer, at the left edge.
func ncutLeaf(t testing.TB) *core.Cell {
	t.Helper()
	f, err := cif.ParseString("DS 1; 9 NCUT; L NM; B 1500 1500 750 750; L NP; B 1000 1000 750 750; " +
		"L NC; B 500 500 750 750; L NP; B 6500 500 3250 3750; 94 M 0 750 NM; 94 S 6500 3750 NP; DF; E")
	if err != nil {
		t.Fatal(err)
	}
	sym := f.SymbolByID(1)
	sym.Elements = append(sym.Elements, cif.Connector{Name: "Z", At: geom.Pt(0, 2000)})
	leaf, err := core.NewLeafFromCIF(f, sym)
	if err != nil {
		t.Fatal(err)
	}
	return leaf
}

// TestHierLatticeCircuitExact is the fast-path circuit's differential:
// over every orientation, both pitch signs and non-square arrays, the
// lattice-arithmetic circuit equals the flat extractor's, the verdict
// equals the flat checker's, and the circuit builds no material index
// and discovers no pairs. On NCUT at a positive pitch some context
// join must find two occurrences at its point, the lower one without
// material there, so occupancy must return every candidate in order.
func TestHierLatticeCircuitExact(t *testing.T) {
	d, _ := newDesign(t, "SCRATCH")
	sr, _ := d.Cell("SRCELL")
	nc := ncutLeaf(t)
	for _, leaf := range []struct {
		cell   *core.Cell
		sx, sy int
	}{{sr, 20, 24}, {nc, 20, 20}} {
		for o := geom.R0; o <= geom.MXR270; o++ {
			for _, sign := range []int{1, -1} {
				for _, dims := range [][2]int{{14, 20}, {20, 14}} {
					name := fmt.Sprintf("%s %dx%d %s pitch%+d", leaf.cell.Name, dims[0], dims[1], o, sign)
					t.Run(name, func(t *testing.T) {
						top := core.NewComposition("TOP")
						in := core.NewInstance("a", leaf.cell, geom.MakeTransform(o, geom.Pt(1000, -3000)))
						in.Nx, in.Ny = dims[0], dims[1]
						in.Sx, in.Sy = sign*leaf.sx*rules.Lambda, sign*leaf.sy*rules.Lambda
						top.Instances = append(top.Instances, in)

						e := New()
						res, ok := e.Verify(top)
						if !ok || e.Stats().FastRuns != 1 {
							t.Fatalf("not a fast-path verdict: ok=%v decline=%v stats=%+v", ok, e.LastDeclineInfo(), e.Stats())
						}
						wantCkt, wantErr, wantVs := flatVerdict(t, top)
						if wantErr != nil {
							t.Fatalf("flat extraction: %v", wantErr)
						}
						if !reflect.DeepEqual(res.Violations, wantVs) {
							t.Fatalf("violations differ from flat\nhier: %v\nflat: %v", res.Violations, wantVs)
						}
						ckt, err := res.Circuit()
						if err != nil {
							t.Fatalf("materialize: %v", err)
						}
						if !reflect.DeepEqual(ckt, wantCkt) {
							t.Fatalf("circuit differs from flat: %d nets, flat %d", ckt.NetCount, wantCkt.NetCount)
						}
						if st := res.gen; st.matIx != nil || st.pairs != nil {
							t.Fatalf("the lattice circuit built an index (%v) or discovered pairs (%d)", st.matIx != nil, len(st.pairs))
						}
						if leaf.cell != nc {
							return
						}
						if e.Stats().LabelsContext == 0 {
							t.Error("no label took the context lookup; Z should")
						}
						if contested := contestedJoins(res.gen); (contested > 0) != (sign > 0) {
							t.Errorf("%d join(s) see a lower occurrence without material first, want some = %v", contested, sign > 0)
						}
					})
				}
			}
		}
	}
}

// contestedJoins counts the context joins whose point lies in two or
// more occurrences' material boxes with no eligible material in the
// lowest one: there a lookup that stops at the first candidate drops
// the join.
func contestedJoins(st *genState) int {
	n := 0
	for u := range st.occs {
		o := &st.occs[u]
		for _, j := range o.cert.X.Joins {
			p := j.At[1].Add(o.d)
			if occ := st.occupants(p); len(occ) > 1 && st.occs[occ[0]].cert.X.FindAtNone(p.Sub(st.occs[occ[0]].d)) < 0 {
				n++
			}
		}
	}
	return n
}

// TestHierLatticeCircuitFaults pins the fast-path circuit's fault
// behaviour after a fast-path Verify of a 16x16 array: each fault,
// armed in turn, declines Circuit with the condition and placement the
// general connect names (the pend fault fires on the first occurrence,
// the template-poison fault on placement 100's first pair in (u, v)
// order, whose lower end is 83 = copy (5, 3)), and each decline is
// counted. Disarmed, the circuit equals flat.
func TestHierLatticeCircuitFaults(t *testing.T) {
	top := srArray(t, 16, 16, geom.R0)
	e := New()
	e.Log = obs.Discard
	res, ok := e.Verify(top)
	if !ok || e.Stats().FastRuns != 1 {
		t.Fatalf("16x16 array not served by the fast path: ok=%v stats=%+v", ok, e.Stats())
	}
	for k, tc := range []struct {
		p         faultinject.Point
		key       string
		cond      Cond
		cell      string
		placement int
	}{
		{faultinject.ComposeBudget, "", CondComposeBudget, "", -1},
		{faultinject.CertPend, "SRCELL", CondPend, "SRCELL", 0},
		{faultinject.TemplatePoison, "100", CondPoison, "SRCELL", 83},
	} {
		e.Faults = faultinject.New()
		e.Faults.Enable(tc.p, tc.key)
		_, err := res.Circuit()
		d, isDecline := err.(*Decline)
		if !isDecline || d.Cond != tc.cond || d.Cell != tc.cell || d.Placement != tc.placement {
			t.Fatalf("%s %q: Circuit error = %v, want %s cell %q placement %d", tc.p, tc.key, err, tc.cond, tc.cell, tc.placement)
		}
		if e.Faults.Hits(tc.p) == 0 {
			t.Errorf("%s armed but never fired", tc.p)
		}
		if got := e.Stats().Fallbacks; got != k+1 {
			t.Errorf("%s: fallbacks = %d, want %d", tc.p, got, k+1)
		}
		if ld := e.LastDeclineInfo(); ld != d {
			t.Errorf("%s: last decline = %v, want the returned one", tc.p, ld)
		}
	}
	e.Faults = nil
	ckt, err := res.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	if want, err := extract.FromCell(top); err != nil || !reflect.DeepEqual(ckt, want) {
		t.Fatalf("disarmed circuit differs from flat (flat error %v)", err)
	}
}
