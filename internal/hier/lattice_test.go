package hier

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"riot/internal/cif"
	"riot/internal/core"
	"riot/internal/drc"
	"riot/internal/extract"
	"riot/internal/faultinject"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/obs"
	"riot/internal/rules"
	"riot/internal/sticks"
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

// TestHierLatticeFaultBeyondProof pins where a placement-keyed fault
// fires when the fast path's proof lattice lacks its index. The
// template-poison fault on placement 100 of a 16x16 array, armed
// before Verify, finds no placement 100 among the proof's copies, so
// Verify answers on the fast path. Circuit then declines with the
// record a general composition of the array names (placement 100's
// first pair in (u, v) order, whose lower end is 83 = copy (5, 3)),
// and the decline is counted.
func TestHierLatticeFaultBeyondProof(t *testing.T) {
	top := srArray(t, 16, 16, geom.R0)
	arm := func() *faultinject.Set {
		f := faultinject.New()
		f.Enable(faultinject.TemplatePoison, "100")
		return f
	}
	e := New()
	e.Log = obs.Discard
	e.Faults = arm()
	res, ok := e.Verify(top)
	if !ok || e.Stats().FastRuns != 1 {
		t.Fatalf("not a fast-path verdict: ok=%v decline=%v stats=%+v", ok, e.LastDeclineInfo(), e.Stats())
	}
	if n := e.Faults.Hits(faultinject.TemplatePoison); n != 0 {
		t.Fatalf("the fault fired %d time(s) in the %dx%[2]d proof, which has no placement 100", n, fastLattice)
	}
	_, err := res.Circuit()
	d, isDecline := err.(*Decline)
	if !isDecline || d.Cond != CondPoison || d.Cell != "SRCELL" || d.Placement != 83 {
		t.Fatalf("Circuit error = %v, want %s cell SRCELL placement 83", err, CondPoison)
	}
	if got := e.Stats().Fallbacks; got != 1 {
		t.Errorf("fallbacks = %d, want 1", got)
	}
	if ld := e.LastDeclineInfo(); ld != d {
		t.Errorf("last decline = %v, want the returned one", ld)
	}

	g := New()
	g.Faults = arm()
	st, err := g.placements(top)
	if err == nil {
		err = g.compose(st, nil)
	}
	if gd, isDecline := err.(*Decline); !isDecline || gd.Cond != d.Cond || gd.Cell != d.Cell || gd.Placement != d.Placement {
		t.Fatalf("the general composition declined with %v, Circuit with %v", err, d)
	}
}

// edgeLeaf builds a CIF leaf EDGE, a 12 lambda square with two metal
// strips along its left and right edges, 2 and 1 lambda wide: each is
// narrower than metal's 3 lambda minimum width alone. At its box pitch
// a copy's right strip abuts its right neighbour's left strip, and the
// two make one 3 lambda strip. So the array violates only at its edge
// copies, where no neighbour widens the strip, and a proof lattice
// declines it only through its own edge copies.
func edgeLeaf(t testing.TB) *core.Cell {
	t.Helper()
	f, err := cif.ParseString("DS 1; 9 EDGE; L NM; B 500 3000 250 1500; B 250 3000 2875 1500; DF; E")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := core.NewLeafFromCIF(f, f.SymbolByID(1))
	if err != nil {
		t.Fatal(err)
	}
	return leaf
}

// floatSRCell is SRCELL with a floating metal square: a net no device
// touches.
func floatSRCell(t testing.TB) *core.Cell {
	t.Helper()
	sc := lib.SRCell()
	sc.Name = "FLOAT"
	sc.Wires = append(sc.Wires, sticks.Wire{Layer: geom.NM, Width: 4, Points: []geom.Point{{X: 3, Y: 10}, {X: 5, Y: 10}}})
	leaf, err := core.NewLeafFromSticks(sc)
	if err != nil {
		t.Fatal(err)
	}
	return leaf
}

// proofArray is one single-ARRAY design of the lattice-proof
// differential; edgeOnly marks the EDGE arrays with no gap, which
// violate at their edge copies only.
type proofArray struct {
	name     string
	top      *core.Cell
	edgeOnly bool
}

// proofArrays lists the lattice-proof differential's designs: SRCELL,
// NAND, OR4, PIPEM, PIPEP, FLOAT and EDGE at their box pitch and NCUT
// at its 20 lambda pitch, each in all eight orientations, at both
// pitch signs, with no gap, 2 lambda apart on x, 3 lambda apart on y,
// overlapping 1 lambda on x or on y, or overlapping 6 lambda on y
// (deep enough to bury SRCELL's gates in its neighbour's diffusion, a
// poison decline), at 14x20 and 20x14.
func proofArrays(t *testing.T) []proofArray {
	t.Helper()
	cells, err := lib.Cells()
	if err != nil {
		t.Fatal(err)
	}
	type leaf struct {
		cell   *core.Cell
		sx, sy int
	}
	var leaves []leaf
	for _, c := range append(cells[:5], floatSRCell(t), edgeLeaf(t)) {
		leaves = append(leaves, leaf{c, c.BBox().W(), c.BBox().H()})
	}
	leaves = append(leaves, leaf{ncutLeaf(t), 20 * rules.Lambda, 20 * rules.Lambda})
	var out []proofArray
	for _, l := range leaves {
		for o := geom.R0; o <= geom.MXR270; o++ {
			for _, dims := range [][2]int{{14, 20}, {20, 14}} {
				for _, gap := range [][2]int{{0, 0}, {2, 0}, {0, 3}, {-1, 0}, {0, -1}, {0, -6}} {
					for _, sign := range []int{1, -1} {
						top := core.NewComposition("TOP")
						in := core.NewInstance("a", l.cell, geom.MakeTransform(o, geom.Pt(1000, -3000)))
						in.Nx, in.Ny = dims[0], dims[1]
						in.Sx = sign * (l.sx + gap[0]*rules.Lambda)
						in.Sy = sign * (l.sy + gap[1]*rules.Lambda)
						top.Instances = append(top.Instances, in)
						out = append(out, proofArray{fmt.Sprintf("%s %s %dx%d gap%v pitch%+d", l.cell.Name, o, dims[0], dims[1], gap, sign),
							top, l.cell.Name == "EDGE" && gap == [2]int{}})
					}
				}
			}
		}
	}
	return out
}

// onEdgeCopies reports whether every violation lies inside the first
// or last row or column of the array's copies.
func onEdgeCopies(in *core.Instance, vs []drc.Violation) bool {
	box := func(i, j int) geom.Rect { return in.CopyTransform(i, j).ApplyRect(in.Cell.BBox()) }
	x, y := in.Nx-1, in.Ny-1
	edges := []geom.Rect{box(0, 0).Union(box(0, y)), box(x, 0).Union(box(x, y)), box(0, 0).Union(box(x, 0)), box(0, y).Union(box(x, y))}
	for _, v := range vs {
		inside := false
		for _, r := range edges {
			inside = inside || r.ContainsRect(v.Rect)
		}
		if !inside {
			return false
		}
	}
	return true
}

// templateDeltas returns the translations of the pair templates an
// engine has composed (every design here has one certificate).
func templateDeltas(e *Engine) map[geom.Point]bool {
	out := map[geom.Point]bool{}
	for k := range e.tmpl {
		out[geom.Pt(k.dx, k.dy)] = true
	}
	return out
}

// TestHierLatticeProofExact is the fast path's exactness differential
// (the fast-path doc's arguments). For every design of proofArrays
// that passes the locality check:
//
//   - a fresh engine's Verify takes the fast path exactly when a
//     general composition of the whole array (placements, then
//     compose: the path Verify runs when fast declines) has no
//     violation, no spacing candidate and no decline;
//   - a declined Verify names the general composition's decline, and
//     any other verdict equals the general composition's and the flat
//     checker's;
//   - a fast verdict's proof composed the pair templates of the whole
//     array's composition, no more and no fewer.
//
// Verdicts alone cannot tell proof lattices of side 2 and up apart
// (the doc's monotonicity argument); the last check pins the proof's
// pairs to the array's offsets. The designs of each leaf and
// orientation run as one parallel subtest.
func TestHierLatticeProofExact(t *testing.T) {
	groups := map[string][]proofArray{}
	var order []string
	for _, tc := range proofArrays(t) {
		in := tc.top.Instances[0]
		g := fmt.Sprintf("%s %s", in.Cell.Name, in.Tr.O)
		if groups[g] == nil {
			order = append(order, g)
		}
		groups[g] = append(groups[g], tc)
	}
	var mu sync.Mutex
	count := map[string]int{}
	t.Run("arrays", func(t *testing.T) {
		for _, g := range order {
			g := g
			t.Run(g, func(t *testing.T) {
				t.Parallel()
				for _, tc := range groups[g] {
					outcome := proofDesign(t, tc)
					mu.Lock()
					count[outcome]++
					if tc.edgeOnly && outcome == "dirty" {
						count["edge-only"]++
					}
					mu.Unlock()
				}
			})
		}
	})
	t.Logf("outcomes: %v", count)
	if count["fast"] < 800 || count["dirty"] < 300 || count["declined"] == 0 || count["edge-only"] != 32 {
		t.Errorf("the sweep lost its reach: %v, want at least 800 fast, 300 dirty, one declined and 32 edge-only", count)
	}
}

// proofDesign checks one design of the lattice-proof differential and
// names its outcome: "non-local" when it fails the locality check
// (nothing is checked), "fast" when Verify took the fast path,
// "declined" when the engine declined it, and "dirty" when the whole
// array's composition has violations or spacing candidates.
func proofDesign(t *testing.T, tc proofArray) string {
	t.Helper()
	in := tc.top.Instances[0]
	g := New()
	g.Log = obs.Discard
	ct, err := g.cert(in.Cell, in.Tr.O)
	if err != nil {
		t.Fatalf("%s: certificate: %v", tc.name, err)
	}
	if !local(in, ct) {
		return "non-local"
	}
	st, gerr := g.placements(tc.top)
	if gerr == nil {
		gerr = g.compose(st, nil)
	}
	clean := gerr == nil && len(st.violations) == 0 && st.spacingCands == 0

	e := New()
	e.Log = obs.Discard
	res, verified := e.Verify(tc.top)
	onFast := e.Stats().FastRuns == 1
	if onFast != clean {
		t.Fatalf("%s: fast path = %v, but the whole array's composition is clean = %v (error %v, %d violations, %d spacing candidates)",
			tc.name, onFast, clean, gerr, len(st.violations), st.spacingCands)
	}
	if !verified {
		gd, isDecline := gerr.(*Decline)
		if d := e.LastDeclineInfo(); !isDecline || d == nil || d.Cond != gd.Cond || d.Cell != gd.Cell || d.Placement != gd.Placement {
			t.Fatalf("%s: Verify declined with %v, the general composition with %v", tc.name, e.LastDeclineInfo(), gerr)
		}
		return "declined"
	}
	if !onFast && !reflect.DeepEqual(res.Violations, st.violations) {
		t.Fatalf("%s: Verify's violations differ from the general composition's", tc.name)
	}
	want, err := drc.CheckCell(tc.top)
	if err != nil {
		t.Fatalf("%s: flat: %v", tc.name, err)
	}
	if !reflect.DeepEqual(res.Violations, want) {
		t.Fatalf("%s: violations differ from flat\nhier: %v\nflat: %v", tc.name, res.Violations, want)
	}
	if tc.edgeOnly && (len(want) == 0 || !onEdgeCopies(in, want)) {
		t.Fatalf("%s: want violations at edge copies only, flat has %v", tc.name, want)
	}
	if onFast && !reflect.DeepEqual(templateDeltas(e), templateDeltas(g)) {
		t.Fatalf("%s: the proof composed templates at %v, the whole array at %v", tc.name, templateDeltas(e), templateDeltas(g))
	}
	if onFast {
		return "fast"
	}
	return "dirty"
}
