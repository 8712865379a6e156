package lvs

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/rules"
	"riot/internal/verify"
)

// TestReferenceSingleSessionGuard pins the ownership contract: a
// Reference serves one session; a second concurrent entry is refused
// loudly instead of corrupting the pointer-keyed memos.
func TestReferenceSingleSessionGuard(t *testing.T) {
	e := gridEditor(t, 2)
	var rf Reference
	if _, _, err := rf.unnamed(e.Cell, nil); err != nil {
		t.Fatal(err)
	}
	rf.busy = 1
	_, _, err := rf.unnamed(e.Cell, nil)
	if err == nil || !strings.Contains(err.Error(), "concurrently") {
		t.Fatalf("concurrent entry not refused: %v", err)
	}
	rf.busy = 0
	if _, _, err := rf.unnamed(e.Cell, nil); err != nil {
		t.Fatalf("reference did not recover after the guard cleared: %v", err)
	}
}

// TestReferencePruneStale drives an LVS session over many snapshot
// generations of a 16x16 grid — every generation a fresh top clone,
// the moved instance a fresh *Instance — and pins that the reference
// memo keeps one entry per snapshot origin (the distinct cells plus at
// most one superseded straggler), that its pair templates stay within
// the live design's relative placements, and that every restored grid
// checks clean.
func TestReferencePruneStale(t *testing.T) {
	const n = 16
	e := gridEditor(t, n)
	v := &verify.Verifier{Hier: true}
	var inc Incremental
	rng := rand.New(rand.NewSource(1982))
	var in *core.Instance
	for gen := 0; gen < 200; gen++ {
		// nudge a random cell out, then back home
		d := -rules.Lambda
		if gen%2 == 0 {
			in, d = e.Cell.Instances[rng.Intn(n*n)], rules.Lambda
		}
		e.MoveInstance(in, geom.Pt(d, 0))
		res, err := inc.Check(e, v)
		if err != nil {
			t.Fatal(err)
		}
		if gen%2 == 1 && !res.Clean {
			t.Fatalf("generation %d: restored grid not clean: %v", gen, res.Mismatches)
		}
		if gen%50 == 0 {
			want, err := CheckEditorFlat(e)
			if err != nil {
				t.Fatal(err)
			}
			if res.Clean != want.Clean || !reflect.DeepEqual(res.Mismatches, want.Mismatches) {
				t.Fatalf("generation %d: verdict differs from the flat comparison", gen)
			}
		}
	}
	rf := &inc.Ref
	const distinct = 2 // the top and SRCELL
	if len(rf.memo) > distinct+1 || len(rf.ids) > distinct+1 {
		t.Fatalf("memo grew across generations: %d entries, %d ids", len(rf.memo), len(rf.ids))
	}
	// each composition entry keeps only the templates its latest stitch
	// replayed, so the memo holds no more than the live design has
	// distinct relative placements
	tmpls := 0
	for _, ent := range rf.memo {
		tmpls += len(ent.tmpl)
	}
	if live := relativePlacements(e.Cell); tmpls == 0 || tmpls > live {
		t.Fatalf("template memo holds %d templates; the live design has %d distinct relative placements", tmpls, live)
	}
}

// relativePlacements counts the distinct (cell, orientation, cell,
// orientation, translation) placements among a composition's touching
// 1x1 instance pairs — the template keys a stitch of it can use.
func relativePlacements(c *core.Cell) int {
	type rel struct {
		cu, cv *core.Cell
		ou, ov geom.Orient
		d      geom.Point
	}
	seen := map[rel]bool{}
	for i, u := range c.Instances {
		for _, v := range c.Instances[i+1:] {
			if u.BBox().Touches(v.BBox()) {
				seen[rel{u.Cell, v.Cell, u.Tr.O, v.Tr.O, v.Tr.D.Sub(u.Tr.D)}] = true
			}
		}
	}
	return len(seen)
}
