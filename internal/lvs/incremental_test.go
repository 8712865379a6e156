package lvs

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/rules"
	"riot/internal/verify"
)

const lam = rules.Lambda

// nandQuad places two vertical NAND pairs whose output caps touch
// across a 2-lambda box gap — material contact the abutment contract
// does NOT sanction (the boxes are apart), so the layout joins nets
// the structure never declared. far separates the pairs.
func nandQuad(t *testing.T) (*core.Editor, [4]*core.Instance) {
	t.Helper()
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		t.Fatal(err)
	}
	top := core.NewComposition("QUAD")
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEditor(d, top)
	if err != nil {
		t.Fatal(err)
	}
	var ins [4]*core.Instance
	for p := 0; p < 2; p++ {
		x := p * 200 * lam
		lo, err := e.CreateInstance("NAND", fmt.Sprintf("n%d", 2*p), geom.MakeTransform(geom.R0, geom.Pt(x, 0)), 1, 1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		hi, err := e.CreateInstance("NAND", fmt.Sprintf("n%d", 2*p+1), geom.MakeTransform(geom.R0, geom.Pt(x, 22*lam)), 1, 1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		// flip in place so the output faces down across the gap
		e.OrientInstance(hi, geom.MXR180)
		ins[2*p], ins[2*p+1] = lo, hi
	}
	return e, ins
}

// TestUnsanctionedContactIsShort: the touching output caps join two
// declared-distinct nets — a short, reported with both labels.
func TestUnsanctionedContactIsShort(t *testing.T) {
	e, _ := nandQuad(t)
	res, err := scratchEditor(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean {
		t.Fatal("unsanctioned contact verified clean")
	}
	if !hasKind(res, KindShort) {
		t.Fatalf("unsanctioned contact reported as %v", res.Mismatches)
	}
	mm := res.Mismatches[0]
	if mm.Kind != KindShort || len(mm.Labels) == 0 {
		t.Fatalf("first mismatch = %+v, want a labeled short", mm)
	}
}

// TestSwappedConnectionMismatch injects the acceptance scenario: the
// declared pairing joins the quads crosswise while the layout joins
// them straight — a 2x2 crossed anchor cluster, reported as swapped.
func TestSwappedConnectionMismatch(t *testing.T) {
	e, ins := nandQuad(t)
	// declared intent: n0.OUT <-> n3.OUT and n2.OUT <-> n1.OUT
	// (crossed); the layout realizes n0-n1 and n2-n3.
	if err := e.Declare(ins[0], "OUT", ins[3], "OUT"); err != nil {
		t.Fatal(err)
	}
	if err := e.Declare(ins[2], "OUT", ins[1], "OUT"); err != nil {
		t.Fatal(err)
	}
	res, err := scratchEditor(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean {
		t.Fatal("swapped connections verified clean")
	}
	if !hasKind(res, KindSwapped) {
		t.Fatalf("swapped connections reported as %v", res.Mismatches)
	}
	for _, mm := range res.Mismatches {
		if mm.Kind == KindSwapped {
			if len(mm.Labels) != 4 {
				t.Fatalf("swapped labels = %v, want the four crossed connectors", mm.Labels)
			}
			return
		}
	}
}

// TestDeletedRouteIsOpen is the acceptance deleted-wire edit: a routed
// connection's route cell is deleted; the retained Connection record
// still declares the net, so LVS reports a structured open naming the
// connectors.
func TestDeletedRouteIsOpen(t *testing.T) {
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
	sr, err := e.CreateInstance("SRCELL", "sr", geom.MakeTransform(geom.R0, geom.Pt(0, 40*lam)), 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := e.CreateInstance("NAND", "nd", geom.MakeTransform(geom.MXR180, geom.Pt(0, 0)), 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddConnection(nd, "A", sr, "TAP"); err != nil {
		t.Fatal(err)
	}
	route, err := e.RouteConnect(core.RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := scratchEditor(e)
	mustClean(t, res, err, "routed pair")

	// the deleted-wire edit
	if err := e.DeleteInstance(route.RouteInst); err != nil {
		t.Fatal(err)
	}
	if len(e.Declared) != 1 {
		t.Fatalf("declared records = %d after route deletion, want the original link kept", len(e.Declared))
	}
	res, err = scratchEditor(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean {
		t.Fatal("deleted route verified clean")
	}
	if !hasKind(res, KindOpen) {
		t.Fatalf("deleted route reported as %v", res.Mismatches)
	}
}

// TestIncrementalMatchesScratchUnderEdits is the end-to-end
// differential: random editor operations on an abutting grid, the
// generation-keyed incremental path after each, compared against a
// cache-free run from scratch. Verdicts, mismatches and net maps must
// be identical.
func TestIncrementalMatchesScratchUnderEdits(t *testing.T) {
	e := gridEditor(t, 4)
	// an isolated island far from the grid: declarations against it tie
	// genuinely separate nets, so the Declare arm below really changes
	// verdicts (inside the connected grid every poly connector is one
	// net and a declaration would be a no-op union)
	island, err := e.CreateInstance("SRCELL", "island",
		geom.MakeTransform(geom.R0, geom.Pt(500*lam, 500*lam)), 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := &verify.Verifier{}
	inc := &Incremental{}
	rng := rand.New(rand.NewSource(42))

	check := func(step int) {
		t.Helper()
		got, err := inc.Check(e, v)
		if err != nil {
			t.Fatalf("step %d: incremental: %v", step, err)
		}
		want, err := scratchEditor(e)
		if err != nil {
			t.Fatalf("step %d: scratch: %v", step, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: incremental verdict diverged:\ninc:     %+v\nscratch: %+v", step, got, want)
		}
	}

	check(0)
	for step := 1; step <= 24; step++ {
		ins := e.Cell.Instances
		in := ins[rng.Intn(len(ins))]
		switch rng.Intn(4) {
		case 0: // small jog — rails detach or shift
			e.MoveInstance(in, geom.Pt(lam, 0))
		case 1:
			e.MoveInstance(in, geom.Pt(0, -lam))
		case 2: // full pitch — reattach somewhere else
			e.MoveInstance(in, geom.Pt(20*lam, 0))
		case 3: // declare a connection the layout does not realize —
			// the verdict must flip to an open on both paths
			other := ins[rng.Intn(len(ins))]
			if other != island {
				_ = e.Declare(island, "OUT", other, "IN")
			}
		}
		check(step)
	}

	// the cached-verdict fast path: same generation, same pointer back
	r1, err := inc.Check(e, v)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := inc.Check(e, v)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("unchanged generation did not return the cached verdict")
	}
}
