package verify

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/obs"
	"riot/internal/rules"
	"riot/internal/sticks"
)

// narrowSticks is a leaf whose only wire is 2λ metal, below the 3λ
// minimum: every placement of it carries a width residue of its own.
const narrowSticks = `STICKS NARROW
BBOX 0 0 10 10
WIRE NM 2 0 5 10 5
END
`

// TestRetainedCompositionMatchesScratch drives one hierarchical
// Verifier over editor snapshots through a seeded trace of at least 200
// generations, so most runs carry from the retained composition of the
// one before. Every generation must equal the scratch flat run of the
// same snapshot in circuit, violations and occurrence identity. The
// trace covers what the carry must survive or refuse: ±1λ nudges,
// ORIENT R180 and back, DELETE plus re-CREATE in place (the instance
// moves to the end of the list, renumbering every later occurrence), a
// far MOVE, a lone PIPEM top gaining SRCELLs (the layer set changes), a
// poisoned R90 centre cell and its undo, Replicate of an ARRAY below the
// fast-path size, a nested composition edited through a second editor,
// and an in-place leaf mutation announced with Editor.Invalidate. A
// narrow-wire leaf beside the grid has width residues of its own, so an
// isolated CREATE and a far MOVE of it (occurrences added with no pairs)
// must still report them.
func TestRetainedCompositionMatchesScratch(t *testing.T) {
	const side = 4
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		t.Fatal(err)
	}
	newEditor := func(name string) *core.Editor {
		c := core.NewComposition(name)
		if err := d.AddCell(c); err != nil {
			t.Fatal(err)
		}
		e, err := core.NewEditor(d, c)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	at := func(x, y int) geom.Transform { return geom.Translate(geom.Pt(x*rules.Lambda, y*rules.Lambda)) }
	create := func(e *core.Editor, cell, name string, tr geom.Transform, nx, ny int) *core.Instance {
		t.Helper()
		in, err := e.CreateInstance(cell, name, tr, nx, ny, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	row := newEditor("ROW")
	for i := 0; i < 3; i++ {
		create(row, "SRCELL", fmt.Sprintf("r%d", i), at(20*i, 0), 1, 1)
	}
	ed := newEditor("TOP")
	sc, err := sticks.ParseString(narrowSticks)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := core.NewLeafFromSticks(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddCell(nc); err != nil {
		t.Fatal(err)
	}

	v := &Verifier{Hier: true}
	v.SetLog(obs.Discard)
	gens := 0
	// check returns the generation's violation count
	check := func(what string) int {
		t.Helper()
		gens++
		snap := ed.Snapshot()
		got, err := v.VerifySnapshot(snap)
		if err != nil {
			t.Fatalf("gen %d (%s): %v", gens, what, err)
		}
		want, err := (&Verifier{}).VerifySnapshot(snap)
		if err != nil {
			t.Fatalf("gen %d (%s): scratch: %v", gens, what, err)
		}
		if (got.CircuitErr == nil) != (want.CircuitErr == nil) ||
			!reflect.DeepEqual(got.Circuit, want.Circuit) ||
			!reflect.DeepEqual(got.Violations, want.Violations) {
			t.Fatalf("gen %d (%s): verdict differs from the scratch flat run\ngot:  %v, %d violations\nwant: %v, %d violations",
				gens, what, got.CircuitErr, len(got.Violations), want.CircuitErr, len(want.Violations))
		}
		return len(got.Violations)
	}
	// cold runs check that a generation did not carry
	cold := func(what string) {
		t.Helper()
		before := v.HierStats().Retained
		check(what)
		if v.HierStats().Retained != before {
			t.Fatalf("gen %d (%s) carried a retained composition it must not", gens, what)
		}
	}

	// a lone PIPEM top, then SRCELLs: the first one changes the layer set
	pipe := create(ed, "PIPEM", "p", at(20*side+20, 0), 1, 1)
	check("lone pipe")
	cells := make([]*core.Instance, side*side)
	for i := range cells {
		cells[i] = create(ed, "SRCELL", fmt.Sprintf("c%d", i), at(20*(i%side), 24*(i/side)), 1, 1)
		if i == 0 {
			cold("first SRCELL")
		} else {
			check("grow")
		}
	}
	create(ed, "ROW", "row", at(0, 24*side), 1, 1)
	check("nested row")
	arr := create(ed, "SRCELL", "arr", at(20*side+60, 0), 2, 2)
	check("array")
	narrow := []*core.Instance{create(ed, "NARROW", "n0", at(-10, 0), 1, 1)}
	before := check("narrow beside the grid")
	narrow = append(narrow, create(ed, "NARROW", "n1", at(-40, 200), 1, 1))
	if check("isolated create") <= before {
		t.Fatal("the isolated narrow leaf added no width violation of its own")
	}
	ed.MoveInstance(narrow[1], geom.Pt(0, 300*rules.Lambda))
	check("far move of the isolated leaf")

	rng := rand.New(rand.NewSource(1982))
	pick := func() int { return rng.Intn(len(cells)) }
	nudge := func() geom.Point {
		if rng.Intn(2) == 0 {
			return geom.Pt([2]int{-1, 1}[rng.Intn(2)]*rules.Lambda, 0)
		}
		return geom.Pt(0, [2]int{-1, 1}[rng.Intn(2)]*rules.Lambda)
	}
	leaf, _ := d.Cell("SRCELL")
	for gens < 240 {
		switch op := rng.Intn(20); {
		case op < 8:
			in, dd := cells[pick()], nudge()
			ed.MoveInstance(in, dd)
			check("nudge " + in.Name)
			ed.MoveInstance(in, geom.Pt(-dd.X, -dd.Y))
			check("nudge back " + in.Name)
		case op < 10:
			in := cells[pick()]
			ed.OrientInstance(in, geom.R180)
			check("orient " + in.Name)
			ed.OrientInstance(in, geom.R180)
			check("orient back " + in.Name)
		case op < 12:
			k := pick()
			in := cells[k]
			if err := ed.DeleteInstance(in); err != nil {
				t.Fatal(err)
			}
			check("delete " + in.Name)
			cells[k] = create(ed, "SRCELL", in.Name, in.Tr, 1, 1)
			check("re-create " + in.Name)
		case op < 13:
			in := cells[pick()]
			if rng.Intn(3) == 0 {
				in = narrow[rng.Intn(len(narrow))]
			}
			ed.MoveInstance(in, geom.Pt(0, 300*rules.Lambda))
			check("far move " + in.Name)
			ed.MoveInstance(in, geom.Pt(0, -300*rules.Lambda))
			check("far move back " + in.Name)
		case op < 14:
			in := cells[side*side/2+side/2]
			ed.OrientInstance(in, geom.R90)
			check("poison " + in.Name)
			ed.OrientInstance(in, geom.R270)
			check("unpoison " + in.Name)
		case op < 16:
			if err := ed.Replicate(arr, 1+rng.Intn(4), 1+rng.Intn(3), 0, 0); err != nil {
				t.Fatal(err)
			}
			check("replicate")
		case op < 18:
			in, dd := row.Cell.Instances[rng.Intn(3)], nudge()
			row.MoveInstance(in, dd)
			check("nested nudge " + in.Name)
			row.MoveInstance(in, geom.Pt(-dd.X, -dd.Y))
			check("nested nudge back " + in.Name)
		case op < 19:
			orig := leaf.Sticks
			sc := *orig
			sc.Wires = sc.Wires[1:]
			leaf.Sticks = &sc
			ed.Invalidate()
			cold("leaf mutated")
			leaf.Sticks = orig
			ed.Invalidate()
			cold("leaf restored")
		default:
			dd := nudge()
			ed.MoveInstance(pipe, dd)
			check("pipe nudge")
			ed.MoveInstance(pipe, geom.Pt(-dd.X, -dd.Y))
			check("pipe nudge back")
		}
	}

	hs, st := v.HierStats(), v.Stats()
	if hs.Retained < gens/2 || st.Full == 0 || st.Hier < gens/2 {
		t.Fatalf("the trace should mostly carry and sometimes decline: %d generations, %+v, %+v", gens, st, hs)
	}
}

// TestRetainedNudgeComposesConstantPairs pins the retained path's
// scaling: a one-cell nudge composes the same number of pairs on an
// 8x8, a 16x16 and a 32x32 grid, far fewer than the cold run.
func TestRetainedNudgeComposesConstantPairs(t *testing.T) {
	var counts []int
	for _, n := range []int{8, 16, 32} {
		e := gridEditorN(t, n)
		v := &Verifier{Hier: true}
		if _, err := v.Verify(e); err != nil {
			t.Fatal(err)
		}
		cold := v.HierStats().PairsComposed
		e.MoveInstance(e.Cell.Instances[n*n/2+n/2], geom.Pt(0, rules.Lambda))
		if _, err := v.Verify(e); err != nil {
			t.Fatal(err)
		}
		hs := v.HierStats()
		if hs.Retained != 1 || v.Stats().Hier != 2 {
			t.Fatalf("%dx%d: the nudge did not carry: %+v, %+v", n, n, hs, v.Stats())
		}
		nudge := hs.PairsComposed - cold
		if nudge <= 0 || nudge*10 > cold {
			t.Fatalf("%dx%d: the nudge composed %d pairs, the cold run %d", n, n, nudge, cold)
		}
		counts = append(counts, nudge)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("pairs composed by a one-cell nudge grow with the grid: %v at 8, 16, 32", counts)
	}
}
