package lvs

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"riot/internal/core"
	"riot/internal/extract"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/sticks"
	"riot/internal/verify"
)

// refDiff compares rf's reference netlist of cell against a fresh
// Reference's: net count, devices, leaf count and label tables. It
// returns "" when the two agree.
func refDiff(rf *Reference, cell *core.Cell, declared []core.Connection) (string, error) {
	got, gotLeaves, err := rf.unnamed(cell, declared)
	if err != nil {
		return "", err
	}
	want, wantLeaves, err := new(Reference).unnamed(cell, declared)
	if err != nil {
		return "", err
	}
	switch {
	case got.NetCount != want.NetCount:
		return fmt.Sprintf("net count %d, fresh %d", got.NetCount, want.NetCount), nil
	case !reflect.DeepEqual(got.Devices, want.Devices):
		return "devices differ", nil
	case gotLeaves != wantLeaves:
		return fmt.Sprintf("%d leaf occurrences, fresh %d", gotLeaves, wantLeaves), nil
	}
	if !slices.Equal(got.Sites, want.Sites) {
		var sites []int
		for i := range got.Sites {
			if i >= len(want.Sites) || got.Sites[i] != want.Sites[i] {
				sites = append(sites, i)
			}
		}
		return fmt.Sprintf("%d label sites, fresh %d; differing %v", len(got.Sites), len(want.Sites), sites), nil
	}
	return "", nil
}

// probeLeaf is a wire-only test leaf with a connector off its own
// material: X sits on poly at the bottom edge, where the leaf draws no
// poly, so it binds no net of its own and its label resolves only
// through a coincident neighbour's port (the point-query path). T, a
// poly stub reaching the top edge, is such a port for a PROBE stacked
// directly above.
func probeLeaf(t *testing.T) *core.Cell {
	t.Helper()
	c, err := core.NewLeafFromSticks(&sticks.Cell{
		Name:   "PROBE",
		HasBox: true,
		Box:    geom.R(0, 0, 20, 20),
		Wires: []sticks.Wire{
			{Layer: geom.NM, Width: 4, Points: []geom.Point{geom.Pt(0, 10), geom.Pt(20, 10)}},
			{Layer: geom.NP, Width: 2, Points: []geom.Point{geom.Pt(10, 15), geom.Pt(10, 20)}},
		},
		Connectors: []sticks.Connector{
			{Name: "L", At: geom.Pt(0, 10), Layer: geom.NM, Width: 4, Side: geom.SideLeft},
			{Name: "R", At: geom.Pt(20, 10), Layer: geom.NM, Width: 4, Side: geom.SideRight},
			{Name: "T", At: geom.Pt(10, 20), Layer: geom.NP, Width: 2, Side: geom.SideTop},
			{Name: "X", At: geom.Pt(10, 0), Layer: geom.NP, Width: 2, Side: geom.SideBottom},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// labelDesign builds the trace design: a 4x4 grid of placed SRCELLs,
// a 1x3 and a 3x3 SRCELL ARRAY, two stacked PROBEs (the upper one's X
// resolves through the lower one's T), and SUB, a nested composition
// of two abutting SRCELLs with an explicit extra connector, placed
// once. The top declares an extra connector too. It returns the top's
// editor and one on SUB.
func labelDesign(t *testing.T) (top, sub *core.Editor) {
	t.Helper()
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		t.Fatal(err)
	}
	if err := d.AddCell(probeLeaf(t)); err != nil {
		t.Fatal(err)
	}
	s := core.NewComposition("SUB")
	if err := d.AddCell(s); err != nil {
		t.Fatal(err)
	}
	sub, err := core.NewEditor(d, s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sub.CreateInstance("SRCELL", fmt.Sprintf("s%d", i), geom.MakeTransform(geom.R0, geom.Pt(20*lam*i, 0)), 1, 1, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.ExtraConnectors = []core.Connector{{Name: "SEXT", At: geom.Pt(0, 22*lam), Layer: geom.NM, Width: 4 * lam}}

	c := core.NewComposition("CARRY")
	if err := d.AddCell(c); err != nil {
		t.Fatal(err)
	}
	top, err = core.NewEditor(d, c)
	if err != nil {
		t.Fatal(err)
	}
	place := func(cell, name string, x, y, nx, ny int) {
		t.Helper()
		if _, err := top.CreateInstance(cell, name, geom.MakeTransform(geom.R0, geom.Pt(x*lam, y*lam)), nx, ny, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		place("SRCELL", fmt.Sprintf("c%d", i), 20*(i%4), 24*(i/4), 1, 1)
	}
	place("SRCELL", "row", 0, 150, 3, 1)
	place("SRCELL", "blk", 100, 0, 3, 3)
	place("PROBE", "p0", 300, 0, 1, 1)
	place("PROBE", "p1", 300, 20, 1, 1)
	place("SUB", "sub", 0, 250, 1, 1)
	c.ExtraConnectors = []core.Connector{{Name: "EXT", At: geom.Pt(300*lam, 10*lam), Layer: geom.NM, Width: 4 * lam}}
	return top, sub
}

// TestLabelTablesMatchFresh is the session label differential: a
// seeded trace of editor operations over the label design, each
// generation checked through one Incremental and one hierarchical
// Verifier. At every generation the session's reference netlist — its
// memoized entries re-stitched and its label table refilled — must
// equal a fresh Reference's, with and without the declared records,
// and the LVS verdict must equal the witness-free flat comparison's.
func TestLabelTablesMatchFresh(t *testing.T) {
	top, sub := labelDesign(t)
	v := &verify.Verifier{Hier: true}
	var inc Incremental
	rng := rand.New(rand.NewSource(2026))
	probe, _ := top.Design.Cell("PROBE")
	sr, _ := top.Design.Cell("SRCELL")
	pick := func() *core.Instance { return top.Cell.Instances[rng.Intn(len(top.Cell.Instances))] }
	ops := []struct {
		name string
		run  func() error
	}{
		{"nudge", func() error {
			top.MoveInstance(pick(), geom.Pt([]int{-lam, lam}[rng.Intn(2)], 0))
			return nil
		}},
		{"orient", func() error { top.OrientInstance(pick(), geom.R180); return nil }},
		{"recreate", func() error {
			in := pick()
			if c, ok := top.Design.Cell(in.Cell.Name); !ok || c != in.Cell {
				return nil // a generated route cell has no menu entry
			}
			if err := top.DeleteInstance(in); err != nil {
				return err
			}
			_, err := top.CreateInstance(in.Cell.Name, in.Name, in.Tr, in.Nx, in.Ny, in.Sx, in.Sy)
			return err
		}},
		{"far", func() error {
			top.MoveInstance(pick(), geom.Pt([]int{-400 * lam, 400 * lam}[rng.Intn(2)], 0))
			return nil
		}},
		{"declare", func() error {
			a, b := pick(), pick()
			ca, cb := a.Connectors(), b.Connectors()
			if len(ca) == 0 || len(cb) == 0 {
				return nil
			}
			_ = top.Declare(a, ca[rng.Intn(len(ca))].Name, b, cb[rng.Intn(len(cb))].Name)
			return nil
		}},
		{"nested", func() error {
			sub.MoveInstance(sub.Cell.Instances[rng.Intn(len(sub.Cell.Instances))], geom.Pt(0, []int{-lam, lam}[rng.Intn(2)]))
			return nil
		}},
	}
	ran := map[string]int{}
	for gen := 0; gen < 240; gen++ {
		switch gen {
		case 0: // the cold stitch
		case 60: // a bring-out route from the upper PROBE to the top edge
			p1, _ := top.Instance("p1")
			if p1 == nil {
				t.Fatal("p1 missing before the bring-out")
			}
			ri, err := top.BringOut(p1, []string{"T"}, geom.SideTop)
			if err != nil || ri == nil {
				t.Fatalf("bring-out: %v, %v", ri, err)
			}
			ran["bringout"]++
		case 120: // a leaf mutated in place: SRCELL loses a wire
			sc := *sr.Sticks
			sc.Wires = sc.Wires[1:]
			sr.Sticks = &sc
			top.Invalidate()
			ran["mutate"]++
		case 180: // PROBE loses its metal wire and its first connector,
			// so every surviving PROBE instance's names shift
			sc := *probe.Sticks
			sc.Wires, sc.Connectors = sc.Wires[1:], sc.Connectors[1:]
			probe.Sticks = &sc
			top.Invalidate()
			ran["mutate"]++
		default:
			op := ops[rng.Intn(len(ops))]
			if err := op.run(); err != nil {
				t.Fatalf("generation %d: %s: %v", gen, op.name, err)
			}
			ran[op.name]++
		}

		snap := top.Snapshot()
		got, err := inc.CheckSnapshot(snap, v)
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		want, err := CheckEditorFlat(top)
		if err != nil {
			t.Fatal(err)
		}
		if got.Clean != want.Clean || !reflect.DeepEqual(got.Mismatches, want.Mismatches) {
			t.Fatalf("generation %d: verdict differs from the flat comparison:\ngot:  %v\nwant: %v", gen, got.Mismatches, want.Mismatches)
		}
		for _, decl := range [][]core.Connection{nil, snap.Declared} {
			diff, err := refDiff(&inc.Ref, snap.Cell, decl)
			if err != nil {
				t.Fatal(err)
			}
			if diff != "" {
				t.Fatalf("generation %d (declared %d): session reference differs from a fresh one: %s", gen, len(decl), diff)
			}
		}
	}
	for _, name := range []string{"nudge", "orient", "recreate", "far", "declare", "nested", "bringout", "mutate"} {
		if ran[name] == 0 {
			t.Errorf("the trace never ran %s", name)
		}
	}
}

// TestProbeLabelTakesPointQuery pins that the label design exercises
// the point-query path: PROBE's X binds no net of its own, and the
// upper PROBE's X label still lands on the lower PROBE's T net.
func TestProbeLabelTakesPointQuery(t *testing.T) {
	top, _ := labelDesign(t)
	var rf Reference
	nl, err := rf.Netlist(top.Snapshot().Cell, nil)
	if err != nil {
		t.Fatal(err)
	}
	probe, _ := top.Design.Cell("PROBE")
	e := rf.memo[probe]
	for k, cn := range e.conns {
		if (cn.Name == "X") != (e.bind[k] < 0) {
			t.Fatalf("PROBE %s binds net %d; want only X unbound", cn.Name, e.bind[k])
		}
	}
	x, ok := nl.Labels["p1.X"]
	if !ok || x != nl.Labels["p0.T"] {
		t.Fatalf("p1.X = %d (%v), want p0.T's net %d", x, ok, nl.Labels["p0.T"])
	}
	res, err := CheckEditorFlat(top)
	mustClean(t, res, err, "label design")
}

// TestReferenceLeafMutatedInPlace is the LVS twin of the hier engine's
// in-place mutation contract: the reference memoizes leaf entries by
// cell, so a leaf whose content changes under the same
// pointer — announced through Editor.Invalidate or, outside any editor,
// Cell.MarkMutated — must not be served from its old entry. Each case
// drops the shared SRCELL's first sticks wire after a priming check;
// every later verdict must equal the flat comparison's, and the
// session's reference a fresh one's.
func TestReferenceLeafMutatedInPlace(t *testing.T) {
	for _, tc := range []struct {
		name     string
		announce func(e *core.Editor, leaf *core.Cell)
		check    func(inc *Incremental, v *verify.Verifier, e *core.Editor) (*Result, error)
		flat     func(e *core.Editor) (*Result, error)
	}{
		{"editor",
			func(e *core.Editor, _ *core.Cell) { e.Invalidate() },
			func(inc *Incremental, v *verify.Verifier, e *core.Editor) (*Result, error) { return inc.Check(e, v) },
			CheckEditorFlat},
		{"CheckCell",
			func(_ *core.Editor, leaf *core.Cell) { leaf.MarkMutated() },
			func(inc *Incremental, v *verify.Verifier, e *core.Editor) (*Result, error) {
				return inc.CheckCell(e.Cell, v)
			},
			func(e *core.Editor) (*Result, error) { return CheckCellFlat(e.Cell) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := gridEditor(t, 4)
			v := &verify.Verifier{Hier: true}
			var inc Incremental
			res, err := tc.check(&inc, v, e)
			mustClean(t, res, err, "before the mutation")
			before, err := new(Reference).Netlist(e.Cell, nil)
			if err != nil {
				t.Fatal(err)
			}
			leaf, _ := e.Design.Cell("SRCELL")
			sc := *leaf.Sticks
			sc.Wires = sc.Wires[1:]
			leaf.Sticks = &sc
			tc.announce(e, leaf)

			after, err := new(Reference).Netlist(e.Cell, nil)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(before, after) {
				t.Fatal("dropping the wire left the reference unchanged; the case proves nothing")
			}
			want, err := tc.flat(e)
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 2; run++ {
				got, err := tc.check(&inc, v, e)
				if err != nil {
					t.Fatal(err)
				}
				if got.Clean != want.Clean || !reflect.DeepEqual(got.Mismatches, want.Mismatches) {
					t.Fatalf("run %d after the mutation differs from the flat comparison (stale leaf entry?)\ngot:  %v\nwant: %v",
						run, got.Mismatches, want.Mismatches)
				}
				diff, err := refDiff(&inc.Ref, e.Snapshot().Cell, nil)
				if err != nil {
					t.Fatal(err)
				}
				if diff != "" {
					t.Fatalf("run %d: session reference differs from a fresh one: %s", run, diff)
				}
			}
		})
	}
}

// TestSiteShiftCaught is the label tables' mutation check: move one
// site onto another site's net, in the layout table or in the
// reference table, and the verdict must differ from the flat
// comparison of the unmutated design. A table read one site off would
// fail the session differentials the same way.
func TestSiteShiftCaught(t *testing.T) {
	e := gridEditor(t, 4)
	cell := e.Snapshot().Cell
	rep, err := (&verify.Verifier{Hier: true}).VerifyCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CheckCellFlat(cell)
	mustClean(t, want, err, "grid")
	n := len(rep.Circuit.Sites)
	for _, side := range []string{"layout", "reference"} {
		for _, s := range []int{0, n / 2, n - 1} {
			var rf Reference
			ref, leaves, err := rf.unnamed(cell, nil)
			if err != nil {
				t.Fatal(err)
			}
			ckt := *rep.Circuit
			ckt.Sites = slices.Clone(ckt.Sites)
			tab := ckt.Sites
			if side == "reference" {
				tab = ref.Sites
			}
			// the nearest site on another net
			for d := 1; d < n; d++ {
				if o := (s + d) % n; tab[o] != tab[s] {
					tab[s] = tab[o]
					break
				}
			}
			got := rf.compare(cell, ref, leaves, &ckt)
			if got.Clean == want.Clean && reflect.DeepEqual(got.Mismatches, want.Mismatches) {
				t.Errorf("site %d shifted on the %s side passed the differential", s, side)
			}
		}
	}
}

// TestOneEditFormatsNoNames pins that label tables carry no names: a
// cold check and a one-edit re-check of a placed grid, verify plus
// LVS, both compare certified and clean without formatting one label
// name, whatever the grid size.
func TestOneEditFormatsNoNames(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		e := gridEditor(t, n)
		v := &verify.Verifier{Hier: true}
		var inc Incremental
		res, err := inc.Check(e, v)
		mustClean(t, res, err, "grid")
		e.MoveInstance(e.Cell.Instances[n*n/2+n/2], geom.Pt(lam, 0))
		res, err = inc.Check(e, v)
		mustClean(t, res, err, "nudged grid")
		if res.Cert.Certified != n*n {
			t.Errorf("%dx%d: %d of %d occurrences certified", n, n, res.Cert.Certified, n*n)
		}
		if got := inc.Ref.Stats().NamesFormatted; got != 0 {
			t.Errorf("%dx%d: verify plus LVS formatted %d label names", n, n, got)
		}
	}
}

// srRow places SRCELLs in a row, pitch lambda apart (20 abuts them),
// one instance per name, in a fresh composition (no editor, so names
// may repeat as composition files allow).
func srRow(t *testing.T, pitch int, names ...string) *core.Cell {
	t.Helper()
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		t.Fatal(err)
	}
	sr, _ := d.Cell("SRCELL")
	top := core.NewComposition("ROW")
	for i, name := range names {
		top.Instances = append(top.Instances, core.NewInstance(name, sr, geom.MakeTransform(geom.R0, geom.Pt(pitch*lam*i, 0))))
	}
	return top
}

// TestExtraNamedLikeInstanceLabel pins one label order on both sides:
// an extra connector named like an instance connector the composition
// does not export (a.OUT faces b) opens the label sites, so the
// instance's own a.OUT, later, names the net. A reference that listed
// the extra after the instance labels put a.OUT on the ground rail the
// extra sits on, and reported the correct layout as swapped.
func TestExtraNamedLikeInstanceLabel(t *testing.T) {
	top := srRow(t, 20, "a", "b")
	top.ExtraConnectors = []core.Connector{{Name: "a.OUT", At: geom.Pt(0, 2*lam), Layer: geom.NM}}
	res, err := CheckCellFlat(top)
	mustClean(t, res, err, "flat")
	res, err = new(Incremental).CheckCell(top, &verify.Verifier{Hier: true})
	mustClean(t, res, err, "hier")
	nl, err := new(Reference).Netlist(top, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nl.Labels["a.OUT"] != nl.Labels["b.IN"] {
		t.Errorf("reference a.OUT on net %d, b.IN on %d", nl.Labels["a.OUT"], nl.Labels["b.IN"])
	}
}

// TestDuplicateInstanceNames pins two instances of one name (a spaced
// row a, a, b, so every copy's nets are its own): a.OUT names the later
// a's OUT net on the flat, hier and reference sides alike, and the
// certified path gives the flat comparison's verdict.
func TestDuplicateInstanceNames(t *testing.T) {
	top := srRow(t, 40, "a", "a", "b")
	flat, err := extract.FromCell(top)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&verify.Verifier{Hier: true}).VerifyCell(top)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Circuit, flat) {
		t.Fatal("hier circuit differs from flat")
	}
	sr := top.Instances[0].Cell.Connectors()
	out := slices.IndexFunc(sr, func(cn core.Connector) bool { return cn.Name == "OUT" })
	first, second := flat.Sites[out], flat.Sites[len(sr)+out]
	if first == second {
		t.Fatal("both a.OUT sites share a net; the case proves nothing")
	}
	if got := flat.NetOf(top)["a.OUT"]; got != int(second) {
		t.Errorf("a.OUT names net %d, want the later a's %d", got, second)
	}
	var rf Reference
	ref, _, err := rf.unnamed(top, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := core.LabelMap(top, ref.Sites)["a.OUT"]; got != int(ref.Sites[len(sr)+out]) || ref.Sites[out] == ref.Sites[len(sr)+out] {
		t.Errorf("reference a.OUT names net %d, want the later a's %d (the first's %d)", got, ref.Sites[len(sr)+out], ref.Sites[out])
	}
	want, err := CheckCellFlat(top)
	mustClean(t, want, err, "flat")
	got, err := new(Incremental).CheckCell(top, &verify.Verifier{Hier: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Clean != want.Clean || !reflect.DeepEqual(got.Mismatches, want.Mismatches) {
		t.Fatalf("certified verdict differs from flat:\ngot:  %v\nwant: %v", got.Mismatches, want.Mismatches)
	}
}
