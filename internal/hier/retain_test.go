package hier

import (
	"fmt"
	"reflect"
	"testing"

	"riot/internal/core"
	"riot/internal/faultinject"
	"riot/internal/geom"
	"riot/internal/obs"
	"riot/internal/rules"
)

// gridEditor places an n x n grid of abutting SRCELLs one instance at a
// time under an editor, the shape an editing session verifies.
func gridEditor(t *testing.T, n int) *core.Editor {
	t.Helper()
	d, top := newDesign(t, "GRID")
	ed, err := core.NewEditor(d, top)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n*n; i++ {
		tr := geom.Translate(geom.Pt(i%n*20*rules.Lambda, i/n*24*rules.Lambda))
		if _, err := ed.CreateInstance("SRCELL", fmt.Sprintf("c%d", i), tr, 1, 1, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	return ed
}

// TestRetainedDiffMutation is the mutation check on the retained
// composition's diff: composed from an intact carry, a nudged grid's
// verdict equals the flat one; with the nudged placement dropped from
// the diff (carried as if unchanged) it must not. Both runs carry from
// the same retained state, which composing never writes.
func TestRetainedDiffMutation(t *testing.T) {
	ed := gridEditor(t, 6)
	e := New()
	if _, ok := e.Verify(ed.Snapshot().Cell); !ok {
		t.Fatalf("engine declined the clean grid: %v", e.LastDeclineInfo())
	}
	// a vertical nudge breaks the row's abutment: spacing violations
	ed.MoveInstance(ed.Cell.Instances[14], geom.Pt(0, rules.Lambda))
	top := ed.Snapshot().Cell
	wantCkt, wantErr, wantVs := flatVerdict(t, top)
	if wantErr != nil || len(wantVs) == 0 {
		t.Fatalf("the nudge should extract and violate: %v, %d violations", wantErr, len(wantVs))
	}

	compose := func(drop bool) bool {
		t.Helper()
		st, err := e.placements(top)
		if err != nil {
			t.Fatal(err)
		}
		c := e.carryFor(st)
		if c == nil {
			t.Fatal("no carry for the next generation of a frozen top")
		}
		if drop {
			o, n := -1, -1
			for i, x := range c.remap {
				if x < 0 {
					o = i
				}
			}
			for i, x := range c.back {
				if x < 0 {
					n = i
				}
			}
			if o < 0 || n < 0 || len(c.changed) != 2 {
				t.Fatalf("a one-cell nudge should remove and add one placement: remap %v, changed %v", c.remap, c.changed)
			}
			c.remap[o], c.back[n], c.changed = int32(n), int32(o), nil
		}
		if err := e.compose(st, c); err != nil {
			t.Fatal(err)
		}
		r := &Result{Violations: st.violations, e: e, top: top, gen: st}
		ckt, err := r.Circuit()
		if err != nil {
			t.Fatal(err)
		}
		return reflect.DeepEqual(r.Violations, wantVs) && reflect.DeepEqual(ckt, wantCkt)
	}

	if !compose(false) {
		t.Fatal("the intact carry composed a verdict that differs from the flat run")
	}
	if compose(true) {
		t.Fatal("dropping the nudged placement from the diff went unnoticed: the differential cannot see a stale carry")
	}
	if st := e.Stats(); st.Retained != 2 {
		t.Fatalf("Retained = %d, want 2 (one per carried compose)", st.Retained)
	}
}

// TestRetainedPairsFirePoisonFault pins fault parity on carried pairs:
// with the template-poison fault armed on one placement, a run that
// carries its pairs from the retained composition declines at the same
// placement, after the same number of fault hits, as a cold engine
// composing the same top.
func TestRetainedPairsFirePoisonFault(t *testing.T) {
	ed := gridEditor(t, 6)
	warm := New()
	if _, ok := warm.Verify(ed.Snapshot().Cell); !ok {
		t.Fatalf("engine declined the clean grid: %v", warm.LastDeclineInfo())
	}
	ed.MoveInstance(ed.Cell.Instances[0], geom.Pt(0, rules.Lambda))
	top := ed.Snapshot().Cell

	var got [2]*Decline
	var hits [2]int
	for k, e := range []*Engine{warm, New()} {
		f := faultinject.New()
		f.Enable(faultinject.TemplatePoison, "20")
		e.Faults = f
		e.Log = obs.Discard
		if _, ok := e.Verify(top); ok {
			t.Fatal("an armed template-poison fault did not decline the run")
		}
		got[k], hits[k] = e.LastDeclineInfo(), f.Hits(faultinject.TemplatePoison)
	}
	if warm.Stats().Retained != 1 {
		t.Fatalf("the faulted run did not carry the retained composition: %+v", warm.Stats())
	}
	if got[0].Cond != CondPoison || *got[0] != *got[1] || hits[0] != hits[1] {
		t.Fatalf("carried run declined as %+v after %d hits, cold run as %+v after %d", got[0], hits[0], got[1], hits[1])
	}
}
