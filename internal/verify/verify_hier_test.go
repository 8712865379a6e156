package verify

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"riot/internal/castore"
	"riot/internal/core"
	"riot/internal/faultinject"
	"riot/internal/flatten"
	"riot/internal/geom"
	"riot/internal/hier"
	"riot/internal/lib"
	"riot/internal/rules"
)

// TestHierVerifierMatchesScratchUnderEdits is the hierarchical
// end-to-end differential: with Hier on, random editor operations must
// produce reports identical to the cache-free flat pipeline whether
// the certificate engine served the run or declined into the flat
// path — the fallback must be observable only through Stats.
func TestHierVerifierMatchesScratchUnderEdits(t *testing.T) {
	e := gridEditor(t, 10)
	v := &Verifier{Hier: true}
	rng := rand.New(rand.NewSource(1982))

	compare := func(step int) {
		t.Helper()
		rep, err := v.Verify(e)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		wantCkt, wantCktErr, wantVs := scratch(t, e.Cell)
		if (rep.CircuitErr == nil) != (wantCktErr == nil) {
			t.Fatalf("step %d: circuit err %v vs scratch %v", step, rep.CircuitErr, wantCktErr)
		}
		if rep.CircuitErr == nil && !reflect.DeepEqual(rep.Circuit, wantCkt) {
			t.Fatalf("step %d: verified circuit differs from scratch", step)
		}
		if !reflect.DeepEqual(rep.Violations, wantVs) {
			t.Fatalf("step %d: verified violations differ from scratch\ngot:  %v\nwant: %v", step, rep.Violations, wantVs)
		}
		if rep.Gen != e.Generation() {
			t.Fatalf("step %d: report generation %d, editor %d", step, rep.Gen, e.Generation())
		}
	}

	compare(-1)

	created := 0
	for step := 0; step < 25; step++ {
		top := e.Cell
		switch op := rng.Intn(10); {
		case op < 5 && len(top.Instances) > 0:
			in := top.Instances[rng.Intn(len(top.Instances))]
			e.MoveInstance(in, geom.Pt(rng.Intn(40*rules.Lambda)-20*rules.Lambda, rng.Intn(40*rules.Lambda)-20*rules.Lambda))
		case op < 7:
			created++
			if _, err := e.CreateInstance("NAND", fmt.Sprintf("x%d", created),
				geom.MakeTransform(geom.R0, geom.Pt(rng.Intn(3000), rng.Intn(3000))), 1, 1, 0, 0); err != nil {
				t.Fatal(err)
			}
		case op < 8 && len(top.Instances) > 1:
			if err := e.DeleteInstance(top.Instances[rng.Intn(len(top.Instances))]); err != nil {
				t.Fatal(err)
			}
		default:
			if len(top.Instances) == 0 {
				continue
			}
			e.OrientInstance(top.Instances[rng.Intn(len(top.Instances))], geom.R90)
		}
		compare(step)
	}

	// the sequence must exercise the hierarchical path at least once
	// (the clean starting grid qualifies); deep-overlap states decline
	// into the flat path along the way, which the comparisons above
	// prove transparent
	if st := v.Stats(); st.Hier == 0 {
		t.Errorf("hierarchical path never served a run: stats = %+v", st)
	}
}

// sameWalkOrder requires a report's circuit to list its devices in
// flatten's walk order, the order the LVS witness aligns its reference
// against: one transistor per walked device, of the walked kind.
func sameWalkOrder(t *testing.T, rep *Report, cell *core.Cell) {
	t.Helper()
	if rep.Circuit == nil {
		return
	}
	fr, err := flatten.Cell(cell)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rep.Circuit.Transistors), len(fr.Devices); got != want {
		t.Fatalf("circuit lists %d devices, the flat walk %d", got, want)
	}
	for i, d := range fr.Devices {
		if k := rep.Circuit.Transistors[i].Kind; k != d.Kind {
			t.Fatalf("device %d is %v, the flat walk's %v", i, k, d.Kind)
		}
	}
}

// TestHierVerifierOccurrences is the differential for the order LVS
// aligns against: every hierarchically served circuit must list its
// devices in flatten's walk order — under a randomized editing trace
// with rotations, in nested compositions, on a materialized fast-path
// array, and on forced declines, which the flat run serves (faultCheck
// requires the whole circuit to equal the scratch run's).
func TestHierVerifierOccurrences(t *testing.T) {
	t.Run("edits", func(t *testing.T) {
		e := gridEditor(t, 10)
		v := &Verifier{Hier: true}
		rng := rand.New(rand.NewSource(7))
		for step := 0; step < 20; step++ {
			top := e.Cell
			switch op := rng.Intn(10); {
			case op < 4:
				in := top.Instances[rng.Intn(len(top.Instances))]
				e.MoveInstance(in, geom.Pt((rng.Intn(9)-4)*rules.Lambda, (rng.Intn(9)-4)*rules.Lambda))
			case op < 6:
				if _, err := e.CreateInstance("NAND", fmt.Sprintf("x%d", step),
					geom.MakeTransform(geom.R0, geom.Pt(200*rules.Lambda+rng.Intn(3000), rng.Intn(3000))), 1, 1, 0, 0); err != nil {
					t.Fatal(err)
				}
			case op < 7 && len(top.Instances) > 2:
				if err := e.DeleteInstance(top.Instances[rng.Intn(len(top.Instances))]); err != nil {
					t.Fatal(err)
				}
			default:
				e.OrientInstance(top.Instances[rng.Intn(len(top.Instances))], geom.R90)
			}
			rep, err := v.Verify(e)
			if err != nil {
				t.Fatal(err)
			}
			sameWalkOrder(t, rep, e.Cell)
		}
		if v.Stats().Hier == 0 {
			t.Fatalf("trace never served hierarchically: %+v", v.Stats())
		}
	})

	t.Run("nested", func(t *testing.T) {
		e := gridEditor(t, 0)
		sr, _ := e.Design.Cell("SRCELL")
		nand, _ := e.Design.Cell("NAND")
		row := core.NewComposition("ROW")
		if err := e.Design.AddCell(row); err != nil {
			t.Fatal(err)
		}
		a := core.NewInstance("a", sr, geom.Identity)
		a.Nx, a.Sx = 3, 20*rules.Lambda
		row.Instances = append(row.Instances, a,
			core.NewInstance("n", nand, geom.MakeTransform(geom.R0, geom.Pt(80*rules.Lambda, 0))))
		top := e.Cell
		top.Instances = append(top.Instances,
			core.NewInstance("r0", row, geom.Identity),
			core.NewInstance("r1", row, geom.MakeTransform(geom.R90, geom.Pt(0, 200*rules.Lambda))))
		v := &Verifier{Hier: true}
		rep, err := v.VerifyCell(top)
		if err != nil {
			t.Fatal(err)
		}
		if v.Stats().Hier != 1 {
			t.Fatalf("nested composition not served hierarchically: %+v", v.Stats())
		}
		sameWalkOrder(t, rep, top)
	})

	t.Run("fast-array", func(t *testing.T) {
		e := gridEditor(t, 0)
		sr, _ := e.Design.Cell("SRCELL")
		in := core.NewInstance("a", sr, geom.MakeTransform(geom.R90, geom.Pt(0, 0)))
		in.Nx, in.Ny, in.Sx, in.Sy = 16, 14, 20*rules.Lambda, 24*rules.Lambda
		e.Cell.Instances = append(e.Cell.Instances, in)
		v := &Verifier{Hier: true}
		rep, err := v.VerifyCell(e.Cell)
		if err != nil {
			t.Fatal(err)
		}
		if hs := v.HierStats(); hs.FastRuns != 1 {
			t.Fatalf("array did not take the fast path: %+v", hs)
		}
		sameWalkOrder(t, rep, e.Cell)
	})

	for _, tc := range []struct {
		point faultinject.Point
		match string
		cond  hier.Cond
	}{
		{faultinject.CertPend, "NAND", hier.CondPend},
		{faultinject.TemplatePoison, "3", hier.CondPoison},
	} {
		t.Run(string(tc.point), func(t *testing.T) {
			e := gridEditor(t, 9)
			if _, err := e.CreateInstance("NAND", "n0",
				geom.MakeTransform(geom.R0, geom.Pt(128*rules.Lambda, 0)), 1, 1, 0, 0); err != nil {
				t.Fatal(err)
			}
			v := &Verifier{Hier: true}
			f := faultinject.New()
			f.Enable(tc.point, tc.match)
			v.InjectFaults(f)
			faultCheck(t, v, e)
			if f.Hits(tc.point) == 0 {
				t.Fatalf("%s armed but never fired", tc.point)
			}
			declinedFlat(t, v, tc.cond)
		})
	}
}

// TestHierVerifierLeafFallsBack checks a non-composition target runs
// the flat pipeline (the engine declines) and still reports exactly.
func TestHierVerifierLeafFallsBack(t *testing.T) {
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		t.Fatal(err)
	}
	cell, ok := d.Cell("NAND")
	if !ok {
		t.Fatal("no NAND in the library")
	}
	v := &Verifier{Hier: true}
	rep, err := v.VerifyCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.Hier != 0 || st.Full != 1 {
		t.Fatalf("leaf cell must fall back to one full flat run: stats = %+v", st)
	}
	wantCkt, wantErr, wantVs := scratch(t, cell)
	if (rep.CircuitErr == nil) != (wantErr == nil) {
		t.Fatalf("circuit err %v vs scratch %v", rep.CircuitErr, wantErr)
	}
	if rep.CircuitErr == nil && !reflect.DeepEqual(rep.Circuit, wantCkt) {
		t.Error("leaf fallback circuit differs from scratch")
	}
	if !reflect.DeepEqual(rep.Violations, wantVs) {
		t.Error("leaf fallback violations differ from scratch")
	}
}

// TestHierVerifierWarmRestart pins the persistence contract at the
// verifier level: a second process (fresh verifier, fresh store
// handle on the same directory) re-extracts ZERO certified cells —
// every certificate loads from disk — and reports the same verdict.
func TestHierVerifierWarmRestart(t *testing.T) {
	dir := t.TempDir()

	run := func() (*Report, Stats, hier.Stats, error) {
		st, err := castore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		e := gridEditor(t, 12)
		v := &Verifier{Hier: true}
		v.AttachDisk(st, &castore.Signer{})
		rep, err := v.Verify(e)
		return rep, v.Stats(), v.HierStats(), err
	}

	rep1, st1, h1, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if st1.Hier != 1 {
		t.Fatalf("cold run not served hierarchically: %+v", st1)
	}
	if h1.CertBuilt == 0 || h1.CertStored == 0 {
		t.Fatalf("cold run built/stored no certificates: %+v", h1)
	}

	rep2, st2, h2, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Hier != 1 {
		t.Fatalf("warm run not served hierarchically: %+v", st2)
	}
	if h2.CertBuilt != 0 {
		t.Fatalf("warm restart re-extracted %d certified cell(s): %+v", h2.CertBuilt, h2)
	}
	if h2.CertDiskHits == 0 {
		t.Fatalf("warm restart loaded no certificates from disk: %+v", h2)
	}
	if !reflect.DeepEqual(rep1.Violations, rep2.Violations) ||
		!reflect.DeepEqual(rep1.Circuit, rep2.Circuit) {
		t.Fatal("warm-restart verdict differs from the cold run")
	}
}

// TestHierLeafMutatedInPlace pins the in-place mutation contract: the
// engine memoizes certificates by cell pointer, so a leaf whose content
// changes under the same pointer — announced through Editor.Invalidate
// or, outside any editor, Cell.MarkMutated (core/cell.go) — must not be
// served from its old certificate. Each case drops the shared SRCELL's
// first sticks wire after a priming run; every later report must equal
// the scratch flat run, which itself must differ from the primed one.
func TestHierLeafMutatedInPlace(t *testing.T) {
	for _, tc := range []struct {
		name     string
		announce func(e *core.Editor, leaf *core.Cell)
		verify   func(v *Verifier, e *core.Editor) (*Report, error)
	}{
		{"editor",
			func(e *core.Editor, _ *core.Cell) { e.Invalidate() },
			(*Verifier).Verify},
		{"VerifyCell",
			func(_ *core.Editor, leaf *core.Cell) { leaf.MarkMutated() },
			func(v *Verifier, e *core.Editor) (*Report, error) { return v.VerifyCell(e.Cell) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := gridEditor(t, 6)
			v := &Verifier{Hier: true}
			before, err := tc.verify(v, e)
			if err != nil {
				t.Fatal(err)
			}
			leaf, _ := e.Design.Cell("SRCELL")
			sc := *leaf.Sticks
			sc.Wires = sc.Wires[1:]
			leaf.Sticks = &sc
			tc.announce(e, leaf)

			wantCkt, wantErr, wantVs := scratch(t, e.Cell)
			if (wantErr == nil) == (before.CircuitErr == nil) && reflect.DeepEqual(wantCkt, before.Circuit) &&
				reflect.DeepEqual(wantVs, before.Violations) {
				t.Fatal("dropping the wire left the scratch verdict unchanged; the case proves nothing")
			}
			for run := 0; run < 2; run++ {
				rep, err := tc.verify(v, e)
				if err != nil {
					t.Fatal(err)
				}
				if (rep.CircuitErr == nil) != (wantErr == nil) || !reflect.DeepEqual(rep.Circuit, wantCkt) ||
					!reflect.DeepEqual(rep.Violations, wantVs) {
					t.Fatalf("run %d after the mutation differs from scratch (stale certificate?)\ngot:  %v, %v\nwant: %v, %v",
						run, rep.CircuitErr, rep.Violations, wantErr, wantVs)
				}
			}
			if st := v.Stats(); st.Full != 0 {
				t.Fatalf("the engine declined, so the stale-certificate path never ran: stats = %+v", st)
			}
		})
	}
}
