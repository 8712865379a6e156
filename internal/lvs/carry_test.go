package lvs

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/sticks"
	"riot/internal/verify"
)

// refDiff compares rf's reference netlist of cell against a fresh
// Reference's: net count, devices, labels and occurrence maps (cell and
// nets; an occurrence's signature is a per-Reference id). It returns ""
// when the two agree.
func refDiff(rf *Reference, cell *core.Cell, declared []core.Connection) (string, error) {
	got, gotOccs, err := rf.NetlistOccs(cell, declared)
	if err != nil {
		return "", err
	}
	want, wantOccs, err := new(Reference).NetlistOccs(cell, declared)
	if err != nil {
		return "", err
	}
	switch {
	case got.NetCount != want.NetCount:
		return fmt.Sprintf("net count %d, fresh %d", got.NetCount, want.NetCount), nil
	case !reflect.DeepEqual(got.Devices, want.Devices):
		return "devices differ", nil
	case len(gotOccs) != len(wantOccs):
		return fmt.Sprintf("%d occurrences, fresh %d", len(gotOccs), len(wantOccs)), nil
	}
	for i := range gotOccs {
		if gotOccs[i].cell != wantOccs[i].cell || !slices.Equal(gotOccs[i].nets, wantOccs[i].nets) {
			return fmt.Sprintf("occurrence %d differs", i), nil
		}
	}
	if !reflect.DeepEqual(got.Labels, want.Labels) {
		var names []string
		for name, n := range got.Labels {
			if m, ok := want.Labels[name]; !ok || m != n {
				names = append(names, name)
			}
		}
		for name := range want.Labels {
			if _, ok := got.Labels[name]; !ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		return fmt.Sprintf("%d labels, fresh %d; differing %v", len(got.Labels), len(want.Labels), names), nil
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

// carryDesign builds the trace design: a 4x4 grid of placed SRCELLs,
// a 1x3 and a 3x3 SRCELL ARRAY, two stacked PROBEs (the upper one's X
// resolves through the lower one's T), and SUB, a nested composition
// of two abutting SRCELLs with an explicit extra connector, placed
// once. The top declares an extra connector too. It returns the top's
// editor and one on SUB.
func carryDesign(t *testing.T) (top, sub *core.Editor) {
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

// TestCarriedLabelsMatchFresh is the carried-label differential: a
// seeded trace of editor operations over the carry design, each
// generation checked through one Incremental and one hierarchical
// Verifier. At every generation the session's reference netlist — its
// composition entry re-stitched with carried names — must equal a fresh
// Reference's, with and without the declared records, and the LVS
// verdict must equal the certificate-free flat comparison's.
func TestCarriedLabelsMatchFresh(t *testing.T) {
	top, sub := carryDesign(t)
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
	if st := inc.Ref.Stats(); st.LabelsCarried <= st.LabelsBuilt {
		t.Errorf("the trace carried %d names and formatted %d; the carry barely ran", st.LabelsCarried, st.LabelsBuilt)
	}
}

// TestProbeLabelTakesPointQuery pins that the carry design exercises
// the point-query path: PROBE's X binds no net of its own, and the
// upper PROBE's X label still lands on the lower PROBE's T net.
func TestProbeLabelTakesPointQuery(t *testing.T) {
	top, _ := carryDesign(t)
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
	mustClean(t, res, err, "carry design")
}

// TestCarriedNamesCorruptionCaught is the carry's mutation check: hand
// a surviving instance its neighbour's names in the memoized entry, and
// the next generation, which carries them, must fail the differential.
func TestCarriedNamesCorruptionCaught(t *testing.T) {
	e := gridEditor(t, 4)
	v := &verify.Verifier{Hier: true}
	var inc Incremental
	res, err := inc.Check(e, v)
	mustClean(t, res, err, "grid")
	ent := inc.Ref.memo[e.Cell]
	copy(ent.names[ent.nameLo[0]:ent.nameLo[1]], ent.names[ent.nameLo[1]:ent.nameLo[2]])

	e.MoveInstance(e.Cell.Instances[10], geom.Pt(lam, 0))
	carried := inc.Ref.Stats().LabelsCarried
	if _, err := inc.Check(e, v); err != nil {
		t.Fatal(err)
	}
	if inc.Ref.Stats().LabelsCarried == carried {
		t.Fatal("the nudge carried no names; the corruption was never read")
	}
	snap := e.Snapshot()
	diff, err := refDiff(&inc.Ref, snap.Cell, snap.Declared)
	if err != nil {
		t.Fatal(err)
	}
	if diff == "" {
		t.Fatal("carried names handed to the wrong instance passed the differential")
	}
}

// TestNudgeFormatsOneCell pins the carry's count: a one-cell nudge of a
// placed grid formats the moved SRCELL's names and carries every other
// name, whatever the grid size.
func TestNudgeFormatsOneCell(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		e := gridEditor(t, n)
		sr, _ := e.Design.Cell("SRCELL")
		per := len(sr.Connectors())
		v := &verify.Verifier{Hier: true}
		var inc Incremental
		res, err := inc.Check(e, v)
		mustClean(t, res, err, "grid")
		cold := inc.Ref.Stats()
		if cold.LabelsBuilt != n*n*per || cold.LabelsCarried != 0 {
			t.Fatalf("%dx%d: cold stitch formatted %d and carried %d names, want %d and 0", n, n, cold.LabelsBuilt, cold.LabelsCarried, n*n*per)
		}
		e.MoveInstance(e.Cell.Instances[n*n/2+n/2], geom.Pt(lam, 0))
		if _, err := inc.Check(e, v); err != nil {
			t.Fatal(err)
		}
		st := inc.Ref.Stats()
		built, carried := st.LabelsBuilt-cold.LabelsBuilt, st.LabelsCarried-cold.LabelsCarried
		if built != per || carried != (n*n-1)*per {
			t.Errorf("%dx%d: the nudge formatted %d and carried %d names, want %d and %d", n, n, built, carried, per, (n*n-1)*per)
		}
	}
}

// TestReferenceLeafMutatedInPlace is the LVS twin of the hier engine's
// in-place mutation contract: the reference memoizes leaf entries and
// certificates by cell, so a leaf whose content changes under the same
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

// TestLiveCellFormatsNames pins the carry's live-cell rule: a live
// cell's instances mutate in place, so a re-stitch of it formats every
// name. Replicating a placed instance in place keeps its pointer but
// suffixes its names.
func TestLiveCellFormatsNames(t *testing.T) {
	e := gridEditor(t, 2)
	v := &verify.Verifier{Hier: true}
	var inc Incremental
	res, err := inc.CheckCell(e.Cell, v)
	mustClean(t, res, err, "grid")
	if err := e.Replicate(e.Cell.Instances[0], 1, 2, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.CheckCell(e.Cell, v); err != nil {
		t.Fatal(err)
	}
	if st := inc.Ref.Stats(); st.LabelsCarried != 0 {
		t.Fatalf("a live cell's re-stitch carried %d names", st.LabelsCarried)
	}
	diff, err := refDiff(&inc.Ref, e.Cell, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Fatalf("session reference differs from a fresh one: %s", diff)
	}
}
