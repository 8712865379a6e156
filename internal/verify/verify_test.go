package verify

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"riot/internal/core"
	"riot/internal/drc"
	"riot/internal/extract"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/rules"
)

// gridEditor builds a composition of n individually placed SRCELLs
// (abutting grid) under an editor.
func gridEditor(t testing.TB, n int) *core.Editor {
	t.Helper()
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		t.Fatal(err)
	}
	top := core.NewComposition("TOP")
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEditor(d, top)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		x, y := i%6, i/6
		tr := geom.MakeTransform(geom.R0, geom.Pt(x*20*rules.Lambda, y*24*rules.Lambda))
		if _, err := e.CreateInstance("SRCELL", fmt.Sprintf("c%d", i), tr, 1, 1, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// scratch runs the plain, cache-free pipeline.
func scratch(t *testing.T, cell *core.Cell) (*extract.Circuit, error, []drc.Violation) {
	t.Helper()
	ckt, cktErr := extract.FromCell(cell)
	vs, err := drc.CheckCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	return ckt, cktErr, vs
}

// TestVerifierMatchesScratchUnderEdits is the end-to-end differential:
// random editor operations, Verify after each, compared against
// cache-free extraction and DRC of the same cell.
func TestVerifierMatchesScratchUnderEdits(t *testing.T) {
	e := gridEditor(t, 10)
	v := &Verifier{}
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
}

// TestVerifierCachesByGeneration checks the generation fast path (same
// report pointer back) and that an edit invalidates it: the new
// generation costs one more scratch run.
func TestVerifierCachesByGeneration(t *testing.T) {
	e := gridEditor(t, 6)
	v := &Verifier{}
	r1, err := v.Verify(e)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := v.Verify(e)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("unchanged generation must return the cached report")
	}
	e.MoveInstance(e.Cell.Instances[0], geom.Pt(rules.Lambda, 0))
	r3, err := v.Verify(e)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r2 {
		t.Error("edit did not invalidate the cached report")
	}
	if st := v.Stats(); st != (Stats{Cached: 1, Full: 2}) {
		t.Errorf("stats = %+v, want 1 cached and 2 full runs", st)
	}
}

// TestVerifierInvalidateRebuilds checks Invalidate forces a full,
// correct rebuild.
func TestVerifierInvalidateRebuilds(t *testing.T) {
	e := gridEditor(t, 6)
	v := &Verifier{}
	if _, err := v.Verify(e); err != nil {
		t.Fatal(err)
	}
	// mutate behind the editor's back, then announce it
	in := e.Cell.Instances[2]
	in.Tr = in.Tr.Translated(geom.Pt(50*rules.Lambda, 0))
	e.Invalidate()
	rep, err := v.Verify(e)
	if err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.Full != 2 || st.Cached != 0 {
		t.Errorf("post-Invalidate verify did not run again: stats = %+v", st)
	}
	wantCkt, wantErr, wantVs := scratch(t, e.Cell)
	if (rep.CircuitErr == nil) != (wantErr == nil) {
		t.Fatalf("circuit err mismatch: %v vs %v", rep.CircuitErr, wantErr)
	}
	if rep.CircuitErr == nil && !reflect.DeepEqual(rep.Circuit, wantCkt) {
		t.Error("post-Invalidate circuit differs from scratch")
	}
	if !reflect.DeepEqual(rep.Violations, wantVs) {
		t.Error("post-Invalidate violations differ from scratch")
	}
}
