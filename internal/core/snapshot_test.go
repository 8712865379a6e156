package core

import (
	"slices"
	"testing"

	"riot/internal/geom"
)

// TestSnapshotIsolation pins the tentpole contract: a snapshot is a
// frozen view of one generation, unaffected by edits made after it.
func TestSnapshotIsolation(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "L")
	in, err := e.CreateInstance("L", "a", geom.Identity, 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	snap := e.Snapshot()
	if snap.Gen != e.Generation() {
		t.Fatalf("snapshot gen %d != editor gen %d", snap.Gen, e.Generation())
	}
	if snap.Cell == e.Cell {
		t.Fatal("composition snapshot must be a clone, not the live cell")
	}
	if snap.Cell.Origin() != e.Cell {
		t.Fatalf("clone origin = %p, want live cell %p", snap.Cell.Origin(), e.Cell)
	}
	frozen := snap.Cell.Instances[0]
	if frozen.Cell != in.Cell {
		t.Fatal("leaf cells must be shared, not cloned")
	}
	before := frozen.Tr

	e.MoveInstance(in, geom.Pt(500, 700))
	if frozen.Tr != before {
		t.Fatalf("edit after snapshot moved the frozen instance: %v -> %v", before, frozen.Tr)
	}
	if snap.Cell.Instances[0] != frozen {
		t.Fatal("frozen instance list changed under the snapshot")
	}

	snap2 := e.Snapshot()
	if snap2.Gen <= snap.Gen {
		t.Fatalf("generation did not advance: %d -> %d", snap.Gen, snap2.Gen)
	}
	if snap2.Cell.Instances[0].Tr == before {
		t.Fatal("new snapshot must see the move")
	}
}

// TestSnapshotPointerReuse pins the cache-warming rules: an unchanged
// generation returns the identical snapshot, and across generations
// untouched instances keep their clone pointers so pointer-keyed
// verification caches keep hitting.
func TestSnapshotPointerReuse(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "L")
	a, err := e.CreateInstance("L", "a", geom.Identity, 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.CreateInstance("L", "b", geom.Translate(geom.Pt(40*L, 0)), 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = b

	s1 := e.Snapshot()
	if s2 := e.Snapshot(); s2 != s1 {
		t.Fatal("unchanged generation must return the cached snapshot")
	}

	e.MoveInstance(a, geom.Pt(0, 30*L))
	s2 := e.Snapshot()
	if s2.Cell == s1.Cell {
		t.Fatal("an edit must produce a fresh clone of the edited cell")
	}
	if s2.Cell.Instances[0] == s1.Cell.Instances[0] {
		t.Fatal("the moved instance must get a fresh clone")
	}
	if s2.Cell.Instances[1] != s1.Cell.Instances[1] {
		t.Fatal("the untouched instance must keep its clone pointer across generations")
	}
}

// TestSnapshotSubtreeReuse builds a two-level hierarchy through two
// editors of one design and checks an edit to the top cell leaves the
// untouched sub-composition's clone (and its instances) shared with the
// previous generation.
func TestSnapshotSubtreeReuse(t *testing.T) {
	d := NewDesign()
	addLeaf(t, d, "L")
	sub := NewComposition("SUB")
	if err := d.AddCell(sub); err != nil {
		t.Fatal(err)
	}
	es, err := NewEditor(d, sub)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := es.CreateInstance("L", "x", geom.Identity, 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	top := NewComposition("TOP")
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	et, err := NewEditor(d, top)
	if err != nil {
		t.Fatal(err)
	}
	in, err := et.CreateInstance("SUB", "s", geom.Identity, 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	s1 := et.Snapshot()
	subClone := s1.Cell.Instances[0].Cell
	if subClone == sub {
		t.Fatal("sub-composition must be cloned")
	}

	et.MoveInstance(in, geom.Pt(10*L, 0))
	s2 := et.Snapshot()
	if s2.Cell.Instances[0].Cell != subClone {
		t.Fatal("untouched sub-composition must keep its clone across top-cell edits")
	}

	// an edit inside SUB re-clones SUB (and TOP above it)
	es.MoveInstance(es.Cell.Instances[0], geom.Pt(0, 5*L))
	s3 := et.Snapshot()
	if s3.Cell.Instances[0].Cell == subClone {
		t.Fatal("edited sub-composition must re-clone")
	}
	if s3.Cell.Instances[0].Cell.Origin() != sub {
		t.Fatal("re-clone must keep the live origin")
	}
}

// TestSnapshotDeclaredRemap checks declared connections travel into the
// snapshot with From/To remapped onto the frozen clone's instances.
func TestSnapshotDeclaredRemap(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "L")
	a, err := e.CreateInstance("L", "a", geom.Identity, 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.CreateInstance("L", "b", geom.Translate(geom.Pt(40*L, 0)), 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Declare(b, "IN", a, "OUT"); err != nil {
		t.Fatal(err)
	}

	snap := e.Snapshot()
	if len(snap.Declared) != 1 {
		t.Fatalf("declared = %d, want 1", len(snap.Declared))
	}
	cn := snap.Declared[0]
	if cn.From == b || cn.To == a {
		t.Fatal("snapshot declared records must not reference live instances")
	}
	if cn.From != snap.Cell.Instances[1] || cn.To != snap.Cell.Instances[0] {
		t.Fatal("snapshot declared records must reference the frozen clone's instances")
	}
	if cn.FromConn != "IN" || cn.ToConn != "OUT" {
		t.Fatalf("connector names lost in remap: %q %q", cn.FromConn, cn.ToConn)
	}
}

// TestGenerationsGloballyUnique pins that two editors over two designs
// never mint the same generation — the property that lets a shared
// store key verdicts by generation across sessions.
func TestGenerationsGloballyUnique(t *testing.T) {
	d1, e1 := newEditor(t)
	d2, e2 := newEditor(t)
	addLeaf(t, d1, "L")
	addLeaf(t, d2, "L")
	seen := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		var err error
		if i%2 == 0 {
			_, err = e1.CreateInstance("L", instName("a", i), geom.Identity, 1, 1, 0, 0)
		} else {
			_, err = e2.CreateInstance("L", instName("b", i), geom.Identity, 1, 1, 0, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []uint64{e1.Generation(), e2.Generation()} {
			if g == 0 {
				continue
			}
			seen[g] = true
		}
	}
	if e1.Generation() == e2.Generation() {
		t.Fatalf("two editors share generation %d", e1.Generation())
	}
}

func instName(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

// TestSnapshotInterleavedCellsKeepPointers pins pointer stability across
// a snapshot of another cell: two editors share one design, and an edit
// and snapshot of cell B between two edits of cell A must leave A's
// untouched instance with the clone pointer it had before.
func TestSnapshotInterleavedCellsKeepPointers(t *testing.T) {
	d := NewDesign()
	addLeaf(t, d, "L")
	editorOf := func(name string) *Editor {
		c := NewComposition(name)
		if err := d.AddCell(c); err != nil {
			t.Fatal(err)
		}
		e, err := NewEditor(d, c)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ea, eb := editorOf("A"), editorOf("B")
	a0, err := ea.CreateInstance("L", "a0", geom.Identity, 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ea.CreateInstance("L", "a1", geom.Translate(geom.Pt(40*L, 0)), 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	b0, err := eb.CreateInstance("L", "b0", geom.Identity, 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	ea.MoveInstance(a0, geom.Pt(L, 0))
	s1 := ea.Snapshot()
	eb.MoveInstance(b0, geom.Pt(L, 0))
	eb.Snapshot()
	ea.MoveInstance(a0, geom.Pt(L, 0))
	s2 := ea.Snapshot()
	if s2.Cell.Instances[0] == s1.Cell.Instances[0] {
		t.Fatal("the moved instance must get a fresh clone")
	}
	if s2.Cell.Instances[1] != s1.Cell.Instances[1] {
		t.Fatal("an untouched instance lost its clone pointer to a snapshot of another cell in between")
	}
}

// TestSnapshotDeleteCellReleasesRecord pins the builder's bound: the
// clone record of a cell deleted from the design is dropped, however
// many generations carry records forward.
func TestSnapshotDeleteCellReleasesRecord(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "L")
	sub := NewComposition("SUB")
	if err := d.AddCell(sub); err != nil {
		t.Fatal(err)
	}
	es, err := NewEditor(d, sub)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := es.CreateInstance("L", "x", geom.Identity, 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	es.Snapshot()
	in, err := e.CreateInstance("L", "a", geom.Identity, 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.Snapshot()
	recorded := func() bool {
		d.snapMu.Lock()
		defer d.snapMu.Unlock()
		_, inPrev := d.snapB.prev[sub]
		_, inCur := d.snapB.cur[sub]
		return inPrev || inCur
	}
	if !recorded() {
		t.Fatal("SUB's clone record was not carried forward to the next generation")
	}
	if err := d.DeleteCell("SUB"); err != nil {
		t.Fatal(err)
	}
	if recorded() {
		t.Fatal("DELCELL kept the deleted cell's clone record")
	}
	e.MoveInstance(in, geom.Pt(L, 0))
	e.Snapshot()
	if recorded() {
		t.Fatal("a later generation revived the deleted cell's clone record")
	}
}

// TestSnapshotReuseAfterMiddleDelete pins the fallback of positional
// clone reuse: deleting a middle instance shifts every later one to a
// new index, and each of them, unchanged, keeps its clone pointer.
func TestSnapshotReuseAfterMiddleDelete(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "L")
	var ins []*Instance
	for i := 0; i < 6; i++ {
		in, err := e.CreateInstance("L", instName("x", i), geom.Translate(geom.Pt(20*L*i, 0)), 1, 1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
	}
	s1 := e.Snapshot()
	if err := e.DeleteInstance(ins[2]); err != nil {
		t.Fatal(err)
	}
	s2 := e.Snapshot()
	if len(s2.Cell.Instances) != 5 {
		t.Fatalf("%d clone instances after the delete, want 5", len(s2.Cell.Instances))
	}
	for k, cl := range s2.Cell.Instances {
		old := k
		if k >= 2 {
			old++
		}
		if cl != s1.Cell.Instances[old] {
			t.Errorf("instance %s (index %d, was %d) lost its clone pointer", ins[old].Name, k, old)
		}
	}
}

// TestSnapshotRecreateGetsFreshClone pins that reuse follows the live
// instance, not its fields: deleting an instance and creating one of
// the same cell, name and place at the same index yields a new live
// instance, which gets a fresh clone.
func TestSnapshotRecreateGetsFreshClone(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "L")
	if _, err := e.CreateInstance("L", "a", geom.Identity, 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	tr := geom.Translate(geom.Pt(40*L, 0))
	b, err := e.CreateInstance("L", "b", tr, 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1 := e.Snapshot()
	if err := e.DeleteInstance(b); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateInstance("L", "b", tr, 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	s2 := e.Snapshot()
	if s2.Cell.Instances[1] == s1.Cell.Instances[1] {
		t.Fatal("the re-created instance took the deleted instance's clone")
	}
	if s2.Cell.Instances[0] != s1.Cell.Instances[0] {
		t.Fatal("the untouched instance lost its clone pointer")
	}
}

// TestSnapshotDeclaredRemapAfterShift pins the declared records' remap against a
// brute-force one (every live instance mapped to the clone at its
// index) across a nudge, deletes that shift the instance list ahead of
// and behind the named instances, and a create, with one record naming
// an instance the cell does not hold, which keeps its pointer.
func TestSnapshotDeclaredRemapAfterShift(t *testing.T) {
	d, e := newEditor(t)
	leaf := addLeaf(t, d, "L")
	var ins []*Instance
	for i := 0; i < 8; i++ {
		in, err := e.CreateInstance("L", instName("x", i), geom.Translate(geom.Pt(20*L*i, 0)), 1, 1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
	}
	ghost := NewInstance("ghost", leaf, geom.Identity)
	for _, r := range [][2]*Instance{{ins[1], ins[2]}, {ins[6], ins[7]}, {ins[3], ins[5]}, {ghost, ins[6]}} {
		if err := e.Declare(r[0], "OUT", r[1], "IN"); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string) {
		t.Helper()
		s := e.Snapshot()
		froze := map[*Instance]*Instance{}
		for i, in := range e.Cell.Instances {
			froze[in] = s.Cell.Instances[i]
		}
		want := make([]Connection, 0, len(e.Declared))
		for _, cn := range e.Declared {
			if c, ok := froze[cn.From]; ok {
				cn.From = c
			}
			if c, ok := froze[cn.To]; ok {
				cn.To = c
			}
			want = append(want, cn)
		}
		if !slices.Equal(s.Declared, want) {
			t.Errorf("%s: declared remap %v, want %v", step, s.Declared, want)
		}
	}
	check("first")
	e.MoveInstance(ins[4], geom.Pt(L, 0))
	check("nudge")
	if err := e.DeleteInstance(ins[0]); err != nil {
		t.Fatal(err)
	}
	check("delete ahead")
	if _, err := e.CreateInstance("L", "y", geom.Translate(geom.Pt(0, 40*L)), 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	check("create")
	if err := e.DeleteInstance(ins[4]); err != nil {
		t.Fatal(err)
	}
	check("delete between")
	e.MoveInstance(ins[7], geom.Pt(0, L))
	check("nudge after the shift")
}
