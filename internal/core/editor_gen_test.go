package core

import (
	"testing"

	"riot/internal/geom"
)

// TestEditorGenerationAndChangeLog checks that every mutating editing
// operation advances the generation and stamps it as the edited cell's
// revision — the keys the verifier's report cache and the snapshot
// builder watch.
func TestEditorGenerationAndChangeLog(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "L")
	var a, b *Instance
	for _, op := range []struct {
		name string
		do   func() error
	}{
		{"CreateInstance", func() (err error) {
			a, err = e.CreateInstance("L", "a", geom.Identity, 1, 1, 0, 0)
			return err
		}},
		{"CreateInstance b", func() (err error) {
			b, err = e.CreateInstance("L", "b", geom.Translate(geom.Pt(5000, 0)), 1, 1, 0, 0)
			return err
		}},
		{"MoveInstance", func() error { e.MoveInstance(a, geom.Pt(500, 700)); return nil }},
		{"PlaceInstance", func() error { e.PlaceInstance(a, geom.Identity); return nil }},
		{"OrientInstance", func() error { e.OrientInstance(a, geom.R90); return nil }},
		{"Declare", func() error { return e.Declare(a, "IN", b, "OUT") }},
		{"Replicate", func() error { return e.Replicate(a, 2, 1, 0, 0) }},
		{"DeleteInstance", func() error { return e.DeleteInstance(b) }},
		{"Invalidate", func() error { e.Invalidate(); return nil }},
	} {
		before := e.Generation()
		if err := op.do(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if g := e.Generation(); g <= before {
			t.Fatalf("%s did not advance the generation (%d -> %d)", op.name, before, g)
		}
		if rev := e.Cell.Revision(); rev != e.Generation() {
			t.Fatalf("%s: cell revision %d, generation %d", op.name, rev, e.Generation())
		}
	}
}
