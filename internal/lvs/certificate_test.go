package lvs

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"riot/internal/core"
	"riot/internal/filter"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/seam"
	"riot/internal/sticks"
	"riot/internal/verify"
)

// TestCertificateGridCoverage pins that the certificate path actually
// engages on the canonical workload: every occurrence of the repeated
// leaf certifies, the leaf's certificate is derived exactly once, and
// the verdict is clean with a complete net map.
func TestCertificateGridCoverage(t *testing.T) {
	e := gridEditor(t, 4)
	v := &verify.Verifier{}
	inc := &Incremental{}
	res, err := inc.Check(e, v)
	mustClean(t, res, err, "4x4 grid")
	if res.Cert.Occurrences != 16 || res.Cert.Certified != 16 || res.Cert.Cells != 1 {
		t.Fatalf("cert stats = %+v; want all 16 occurrences certified under 1 cell", res.Cert)
	}
	if res.Cert.Fallback {
		t.Error("clean grid fell back to the flat comparison; the certified path must settle it")
	}
	st := inc.Ref.Stats()
	if st.CertsBuilt != 1 {
		t.Errorf("leaf certificates derived = %d, want the one distinct leaf once", st.CertsBuilt)
	}
	if st.CertHits != 15 {
		t.Errorf("certificate hits = %d, want 15 (every further occurrence served by the certificate)", st.CertHits)
	}
}

// TestLeafSelfMatchIsIdentity pins why a certificate needs no one-time
// match: a leaf's reference entry IS its standalone extraction, and a
// netlist compared against itself is clean under the identity net map.
// Every shipped leaf is checked.
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
		e := rf.entry(c, seam.Reach)
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
// repeated cell must de-certify only that occurrence's cell signature.
// The edit swaps the instance's defining cell for a stretched variant
// (the editor contract: mutations inside a leaf swap the pointer);
// only the variant's certificate is derived anew — the other
// occurrences keep comparing under the original certificate.
func TestCertificateInvalidation(t *testing.T) {
	e := gridEditor(t, 4)
	v := &verify.Verifier{}
	inc := &Incremental{}
	res, err := inc.Check(e, v)
	mustClean(t, res, err, "before edit")
	matched0 := inc.Ref.Stats().CertsBuilt
	if matched0 != 1 {
		t.Fatalf("initial certificates = %d, want 1", matched0)
	}

	// a pure re-stitch (move) derives nothing: every signature is
	// already certified
	e.MoveInstance(e.Cell.Instances[5], geom.Pt(400*lam, 400*lam))
	res, err = inc.Check(e, v)
	mustClean(t, res, err, "after move")
	if got := inc.Ref.Stats().CertsBuilt; got != matched0 {
		t.Fatalf("a move derived certificates: %d -> %d", matched0, got)
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
	// cell as mutated in place, SRCELL included, and so re-derive its
	// certificate too)
	in := e.Cell.Instances[10]
	in.Cell = edited
	e.PlaceInstance(in, in.Tr)

	res, err = inc.Check(e, v)
	mustClean(t, res, err, "after in-cell edit")
	if got := inc.Ref.Stats().CertsBuilt; got != matched0+1 {
		t.Fatalf("in-cell edit derived %d certificates, want exactly the edited variant (1)", got-matched0)
	}
	if res.Cert.Cells != 2 || res.Cert.Certified != 16 {
		t.Fatalf("cert stats after edit = %+v; want 16 certified under 2 distinct cells", res.Cert)
	}
}

// verdict projects the fields the certified and certificate-free paths
// must agree on exactly. (NetMap and the net/device counts legitimately
// differ: the certified result reports collapsed accounting.)
type verdict struct {
	Clean      bool
	Mismatches []Mismatch
}

// TestCertifiedMatchesFlatUnderEdits is the differential acceptance:
// randomized editor operations, the certificate-backed path after each
// edit compared against the plain flat comparison. Clean flags and
// every structured mismatch must be DeepEqual — the certificates are
// invisible except as speed.
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
		if cert.Clean && (len(cert.NetMap) != cert.RefNets || cert.RefNets != cert.LayNets) {
			t.Fatalf("step %d: certified clean result inconsistent: %d mapped of %d/%d nets",
				step, len(cert.NetMap), cert.RefNets, cert.LayNets)
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

// TestCertifiedChipClean runs the certificate path over the full
// figure-10 chip and the shipped library: nested compositions, routed
// channels, stretched cells and CIF pads — partial certification
// (pads and one-off route cells stay in the residual) with a clean
// verdict throughout.
func TestCertifiedChipClean(t *testing.T) {
	for _, n := range []int{8} {
		e := gridEditor(t, n)
		res, err := scratchEditor(e)
		mustClean(t, res, err, fmt.Sprintf("%dx%d grid", n, n))
		if res.Cert.Certified != n*n {
			t.Errorf("%dx%d: certified %d of %d occurrences", n, n, res.Cert.Certified, n*n)
		}
	}
	_, chip, _, err := filter.BuildChip(filter.Routed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scratchCell(chip)
	mustClean(t, res, err, "chip/routed")
	if res.Cert.Certified == 0 {
		t.Error("chip verified with no certified occurrences; the repeated gates should certify")
	}
	cells, err := lib.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		res, err := scratchCell(c)
		mustClean(t, res, err, c.Name)
	}
}
