package lvs

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"riot/internal/core"
	"riot/internal/extract"
	"riot/internal/filter"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/sticks"
	"riot/internal/verify"
)

// TestCertificateGridCoverage pins that the witness actually engages
// on the canonical workload: every occurrence of the repeated leaf
// certifies, the leaf is extracted exactly once, and the verdict is
// clean with the unreduced counts on both sides.
func TestCertificateGridCoverage(t *testing.T) {
	e := gridEditor(t, 4)
	v := &verify.Verifier{}
	inc := &Incremental{}
	res, err := inc.Check(e, v)
	mustClean(t, res, err, "4x4 grid")
	if res.Cert.Occurrences != 16 || res.Cert.Certified != 16 {
		t.Fatalf("cert stats = %+v; want all 16 occurrences certified", res.Cert)
	}
	if res.Cert.Fallback {
		t.Error("clean grid fell back to the flat comparison; the witness must settle it")
	}
	if res.NetMap != nil || res.RefDevices != 16*4 || res.LayDevices != res.RefDevices {
		t.Errorf("witness result = %d/%d devices, net map %v; want 64 on both sides and no map",
			res.RefDevices, res.LayDevices, res.NetMap != nil)
	}
	if st := inc.Ref.Stats(); st.LeavesExtracted != 1 {
		t.Errorf("leaves extracted = %d, want the one distinct leaf once", st.LeavesExtracted)
	}
}

// TestLeafSelfMatchIsIdentity pins that a leaf matches itself: a
// leaf's reference entry IS its standalone extraction, and a netlist
// compared against itself is clean under the identity net map. Every
// shipped leaf is checked.
func TestLeafSelfMatchIsIdentity(t *testing.T) {
	cells, err := lib.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Kind == core.Composition {
			continue
		}
		var rf Reference
		e := rf.entry(c)
		if e.err != nil {
			t.Fatalf("%s: %v", c.Name, e.err)
		}
		side := &Netlist{NetCount: e.nets, Devices: e.devices, Labels: core.LabelMap(c, e.bind)}
		res := Compare(side, side)
		if !res.Clean {
			t.Fatalf("%s: self-match not clean: %v", c.Name, res.Mismatches)
		}
		for r, l := range res.NetMap {
			if r != l {
				t.Fatalf("%s: self-match maps net %d to %d, want the identity", c.Name, r, l)
			}
		}
	}
}

// TestCertificateInvalidation: editing inside one occurrence of a
// repeated cell must re-extract only that occurrence's cell. The edit
// swaps the instance's defining cell for a variant (the editor
// contract: mutations inside a leaf swap the pointer); only the
// variant is extracted anew, and the witness still certifies every
// occurrence.
func TestCertificateInvalidation(t *testing.T) {
	e := gridEditor(t, 4)
	v := &verify.Verifier{}
	inc := &Incremental{}
	res, err := inc.Check(e, v)
	mustClean(t, res, err, "before edit")
	matched0 := inc.Ref.Stats().LeavesExtracted
	if matched0 != 1 {
		t.Fatalf("initial leaf extractions = %d, want 1", matched0)
	}

	// a pure re-stitch (move) extracts nothing: every leaf is current
	e.MoveInstance(e.Cell.Instances[5], geom.Pt(400*lam, 400*lam))
	res, err = inc.Check(e, v)
	mustClean(t, res, err, "after move")
	if got := inc.Ref.Stats().LeavesExtracted; got != matched0 {
		t.Fatalf("a move extracted leaves: %d -> %d", matched0, got)
	}

	// edit INSIDE one occurrence: clone the leaf's sticks definition
	// with an extra (electrically redundant) wire and swap the pointer
	old := e.Cell.Instances[10].Cell
	variant := *old.Sticks
	variant.Name = "SRCELL_EDIT"
	variant.Wires = append(append([]sticks.Wire{}, variant.Wires...),
		sticks.Wire{Layer: variant.Wires[0].Layer, Width: variant.Wires[0].Width,
			Points: append([]geom.Point{}, variant.Wires[0].Points...)})
	edited, err := core.NewLeafFromSticks(&variant)
	if err != nil {
		t.Fatal(err)
	}
	// announced the way STRETCH announces its swap: a touch of the cell
	// under edit only (Editor.Invalidate would announce every reachable
	// cell as mutated in place, SRCELL included, and so re-extract it
	// too)
	in := e.Cell.Instances[10]
	in.Cell = edited
	e.PlaceInstance(in, in.Tr)

	res, err = inc.Check(e, v)
	mustClean(t, res, err, "after in-cell edit")
	if got := inc.Ref.Stats().LeavesExtracted; got != matched0+1 {
		t.Fatalf("in-cell edit extracted %d leaves, want exactly the edited variant (1)", got-matched0)
	}
	if res.Cert.Occurrences != 16 || res.Cert.Certified != 16 {
		t.Fatalf("cert stats after edit = %+v; want all 16 certified", res.Cert)
	}
}

// verdict projects the fields the certified and witness-free paths
// must agree on exactly. (NetMap and the net/device counts legitimately
// differ: a witness result counts unreduced and carries no map.)
type verdict struct {
	Clean      bool
	Mismatches []Mismatch
}

// TestCertifiedMatchesFlatUnderEdits is the differential acceptance:
// randomized editor operations, the certified path after each edit
// compared against the plain flat comparison. Clean flags and every
// structured mismatch must be DeepEqual — the witness is invisible
// except as speed.
func TestCertifiedMatchesFlatUnderEdits(t *testing.T) {
	e := gridEditor(t, 4)
	island, err := e.CreateInstance("SRCELL", "island",
		geom.MakeTransform(geom.R0, geom.Pt(500*lam, 500*lam)), 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))

	check := func(step int) {
		t.Helper()
		cert, err := scratchEditor(e)
		if err != nil {
			t.Fatalf("step %d: certified: %v", step, err)
		}
		flat, err := CheckEditorFlat(e)
		if err != nil {
			t.Fatalf("step %d: flat: %v", step, err)
		}
		got := verdict{cert.Clean, cert.Mismatches}
		want := verdict{flat.Clean, flat.Mismatches}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: certified verdict diverged:\ncertified: %+v\nflat:      %+v", step, got, want)
		}
		if cert.Clean && cert.RefNets != cert.LayNets {
			t.Fatalf("step %d: certified clean result inconsistent: %d/%d nets",
				step, cert.RefNets, cert.LayNets)
		}
	}

	check(0)
	for step := 1; step <= 20; step++ {
		ins := e.Cell.Instances
		in := ins[rng.Intn(len(ins))]
		switch rng.Intn(5) {
		case 0:
			e.MoveInstance(in, geom.Pt(lam, 0))
		case 1:
			e.MoveInstance(in, geom.Pt(0, -lam))
		case 2:
			e.MoveInstance(in, geom.Pt(20*lam, 0))
		case 3: // overlap a neighbor: deep-abutment and short territory
			e.MoveInstance(in, geom.Pt(-6*lam, 0))
		case 4:
			other := ins[rng.Intn(len(ins))]
			if other != island {
				_ = e.Declare(island, "OUT", other, "IN")
			}
		}
		check(step)
	}
}

// TestCertifiedChipClean runs the witness over the figure-10 chips and
// the shipped library, alone and as 3x3 arrays of isolated copies in
// all eight orientations: nested compositions, routed channels,
// stretched cells and CIF pads. Every occurrence certifies, pads,
// routes and edge cells included, so no flat comparison runs.
func TestCertifiedChipClean(t *testing.T) {
	whole := func(res *Result, err error, what string) {
		t.Helper()
		mustClean(t, res, err, what)
		if res.Cert.Certified != res.Cert.Occurrences || res.Cert.Fallback {
			t.Errorf("%s: certified %d of %d occurrences (fallback %v); want all, no fallback",
				what, res.Cert.Certified, res.Cert.Occurrences, res.Cert.Fallback)
		}
	}
	res, err := scratchEditor(gridEditor(t, 8))
	whole(res, err, "8x8 grid")
	for _, variant := range []filter.Variant{filter.Routed, filter.Stretched} {
		_, chip, _, err := filter.BuildChip(variant)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("chip variant %d", variant)
		res, err = scratchCell(chip)
		whole(res, err, what)
		res, err = new(Incremental).CheckCell(chip, &verify.Verifier{Hier: true})
		whole(res, err, what+" (hier)")
	}
	cells, err := lib.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		res, err := scratchCell(c)
		whole(res, err, c.Name)
		if c.Kind == core.Composition {
			continue
		}
		b := c.BBox()
		pitch := 2 * max(b.W(), b.H())
		for o := geom.R0; o <= geom.MXR270; o++ {
			top := core.NewComposition("ORIENT")
			in := core.NewInstance("x", c, geom.MakeTransform(o, geom.Pt(0, 0)))
			in.Nx, in.Ny, in.Sx, in.Sy = 3, 3, pitch, pitch
			top.Instances = []*core.Instance{in}
			what := fmt.Sprintf("%s %v array", c.Name, o)
			res, err := scratchCell(top)
			whole(res, err, what)
			res, err = new(Incremental).CheckCell(top, &verify.Verifier{Hier: true})
			whole(res, err, what+" (hier)")
		}
	}
}

// walkCase is a 4x4 grid's reference and its flat-extracted circuit,
// for the witness mutation checks: the design is clean, so every
// mutation below is of the layout side alone.
func walkCase(t *testing.T) (*core.Cell, *Reference, *Netlist, int, *extract.Circuit) {
	t.Helper()
	cell := gridEditor(t, 4).Snapshot().Cell
	ckt, err := extract.FromCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	rf := new(Reference)
	ref, leaves, err := rf.unnamed(cell, nil)
	if err != nil {
		t.Fatal(err)
	}
	if witness(ref, ckt) < 0 {
		t.Fatal("the unmutated grid does not certify")
	}
	return cell, rf, ref, leaves, ckt
}

// flatVerdict is the flat Compare of the reference against a mutated
// circuit, both tables named.
func flatVerdict(cell *core.Cell, ref *Netlist, ckt *extract.Circuit) verdict {
	named := *ref
	named.Labels = core.LabelMap(cell, ref.Sites)
	res := Compare(&named, FromCircuit(ckt, cell))
	return verdict{res.Clean, res.Mismatches}
}

// TestWitnessReversedDevices: the layout's device list reversed is
// still isomorphic to the reference, but the walk cannot align it. The
// check must come back clean from the flat comparison.
func TestWitnessReversedDevices(t *testing.T) {
	cell, rf, ref, leaves, ckt := walkCase(t)
	rev := *ckt
	rev.Transistors = slices.Clone(ckt.Transistors)
	slices.Reverse(rev.Transistors)
	res := rf.compare(cell, ref, leaves, &rev)
	if !res.Clean {
		t.Fatalf("reversed device list not clean: %v", res.Mismatches)
	}
	if !res.Cert.Fallback || res.Cert.Certified != 0 || res.Cert.Occurrences != 16 {
		t.Errorf("cert stats = %+v; want the flat comparison deciding, 0 of 16 certified", res.Cert)
	}
}

// TestWitnessMovedTerminal moves one device terminal onto a net of
// another occurrence whose pins differ, for every terminal of the
// first occurrence's devices: the verdict must equal the flat
// comparison's. The flat comparison calls most such layouts non-clean;
// a device the reduction prunes (a dangling channel end at the grid's
// corner) leaves the rest clean.
func TestWitnessMovedTerminal(t *testing.T) {
	cell, rf, ref, leaves, ckt := walkCase(t)
	pins := make([]int, ckt.NetCount)
	for _, tr := range ckt.Transistors {
		pins[tr.Gate]++
		pins[tr.A]++
		pins[tr.B]++
	}
	last := ckt.Transistors[len(ckt.Transistors)-4:] // the last SRCELL's
	dirty := 0
	for d := 0; d < 4; d++ {
		for pin := 0; pin < 3; pin++ {
			mut := *ckt
			mut.Transistors = slices.Clone(ckt.Transistors)
			tr := &mut.Transistors[d]
			term := [3]*int{&tr.Gate, &tr.A, &tr.B}[pin]
			moved := false
			for _, o := range last {
				for _, n := range [3]int{o.Gate, o.A, o.B} {
					if !moved && pins[n] != pins[*term] {
						*term, moved = n, true
					}
				}
			}
			if !moved {
				t.Fatalf("device %d pin %d: no net of the last occurrence differs in pins", d, pin)
			}
			res := rf.compare(cell, ref, leaves, &mut)
			want := flatVerdict(cell, ref, &mut)
			if got := (verdict{res.Clean, res.Mismatches}); !reflect.DeepEqual(got, want) {
				t.Errorf("device %d pin %d: verdict differs from flat:\ngot:  %+v\nwant: %+v", d, pin, got, want)
			}
			if !want.Clean {
				dirty++
			}
			if !res.Cert.Fallback || res.Cert.Certified != 0 {
				t.Errorf("device %d pin %d: cert stats = %+v; want the flat comparison deciding", d, pin, res.Cert)
			}
		}
	}
	if dirty < 6 {
		t.Errorf("only %d of 12 moved terminals are non-clean; the check proves little", dirty)
	}
}
