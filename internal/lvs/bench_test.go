package lvs

import (
	"fmt"
	"testing"

	"riot/internal/core"
	"riot/internal/extract"
	"riot/internal/flatten"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/rules"
	"riot/internal/seam"
	"riot/internal/verify"
)

// BenchmarkLVSScale runs the from-scratch comparison over NxN abutting
// SRCELL grids — the same workload the extract and DRC scale
// benchmarks use, so the trajectories compare. Each iteration is a
// fresh Incremental over a zero verifier, so the time includes the
// verifier's flat DRC beside flatten, solve, reference and match.
func BenchmarkLVSScale(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			e := gridEditor(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := scratchEditor(e)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Clean {
					b.Fatalf("grid not clean: %v", res.Mismatches)
				}
			}
		})
	}
}

// BenchmarkIncrementalLVS measures the edit-verify loop on grids of
// individually placed SRCELLs: per iteration one cell moves and the
// whole design re-verifies against its declared structure, through the
// same entry point both ways.
//
//   - incremental (16², 32², 64²): the generation-keyed path — the
//     shared verifier's hierarchical composition (the shipped default),
//     memoized leaf netlists, the composition re-stitched and its
//     label table filled by index;
//   - full (32²): cold caches every iteration (a fresh flat verifier
//     and a fresh reference memo), the from-scratch comparison cost
//     every re-verify would pay without them.
func BenchmarkIncrementalLVS(b *testing.B) {
	for _, c := range []struct {
		n    int
		mode string
	}{{16, "incremental"}, {32, "incremental"}, {64, "incremental"}, {32, "full"}} {
		n := c.n
		b.Run(fmt.Sprintf("%dx%d/%s", n, n, c.mode), func(b *testing.B) {
			e := gridEditor(b, n)
			in := e.Cell.Instances[n*n/2+n/2]
			v := &verify.Verifier{Hier: true}
			inc := &Incremental{}
			if _, err := inc.Check(e, v); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := rules.Lambda
				if i%2 == 1 {
					d = -rules.Lambda
				}
				e.MoveInstance(in, geom.Pt(d, 0))
				if c.mode == "incremental" {
					if _, err := inc.Check(e, v); err != nil {
						b.Fatal(err)
					}
					continue
				}
				cold := &Incremental{}
				if _, err := cold.Check(e, &verify.Verifier{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLVSHierMatch isolates the matching stage (reference,
// circuit and flattened geometry prebuilt and shared): the flat
// comparison against the certificate-backed path, cold — every
// certified iteration drops the reference's certificates, re-derives
// the leaf's from its memoized entry and re-certifies all
// occurrences. The copies settle by device alignment and the forced
// boundary bijection, so the certified cost is the flat cost of the
// un-certified residual (here: nothing) plus linear bookkeeping.
func BenchmarkLVSHierMatch(b *testing.B) {
	for _, n := range []int{32, 64} {
		e := gridEditor(b, n)
		fr, err := flatten.Cell(e.Cell)
		if err != nil {
			b.Fatal(err)
		}
		ckt, _, err := extract.SolveNets(fr)
		if err != nil {
			b.Fatal(err)
		}
		var rf Reference
		ref, occs, err := rf.NetlistOccs(e.Cell, nil)
		if err != nil {
			b.Fatal(err)
		}
		named := *ref
		named.Labels = core.LabelMap(e.Cell, ref.Sites)
		lay := FromCircuit(ckt, e.Cell)
		b.Run(fmt.Sprintf("%dx%d/flat", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := Compare(&named, lay); !res.Clean {
					b.Fatalf("flat not clean: %v", res.Mismatches)
				}
			}
		})
		b.Run(fmt.Sprintf("%dx%d/certified", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rf.certs = nil
				res := compareHier(&rf, e.Cell, occs, ref, ckt, fr.Occurrences())
				if !res.Clean {
					b.Fatalf("certified not clean: %v", res.Mismatches)
				}
				if res.Cert.Certified != n*n {
					b.Fatalf("certified %d of %d occurrences", res.Cert.Certified, n*n)
				}
			}
		})
	}
}

// BenchmarkLeafCertificate measures what each session pays per
// distinct leaf, in process: a fresh Reference extracts SRCELL alone
// for its entry and derives the leaf's certificate from it.
func BenchmarkLeafCertificate(b *testing.B) {
	sr := arrayEditor(b, 1).Cell.Instances[0].Cell
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rf Reference
		e := rf.entry(sr, seam.Reach)
		if e.err != nil {
			b.Fatal(e.err)
		}
		if ct := rf.cert(e.occs[0]); !ct.ok {
			b.Fatal("SRCELL did not certify")
		}
	}
}

// arrayEditor builds a single n x n ARRAY instance of SRCELL under an
// editor — the paper's replicated array, one instance for all copies.
func arrayEditor(tb testing.TB, n int) *core.Editor {
	tb.Helper()
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		tb.Fatal(err)
	}
	top := core.NewComposition(fmt.Sprintf("ARR%d", n))
	if err := d.AddCell(top); err != nil {
		tb.Fatal(err)
	}
	e, err := core.NewEditor(d, top)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := e.CreateInstance("SRCELL", "a", geom.Identity, n, n, 0, 0); err != nil {
		tb.Fatal(err)
	}
	return e
}

// BenchmarkReferenceArray measures the reference derivation of a
// single ARRAY instance as every sign-off session pays it: each
// iteration is a fresh Reference, so the time is one standalone leaf
// extraction plus the array stitch — template replay, device and
// occurrence copy, renumbering, labels.
func BenchmarkReferenceArray(b *testing.B) {
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			cell := arrayEditor(b, n).Cell
			var warm Reference
			if _, _, err := warm.NetlistOccs(cell, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var rf Reference
				nl, _, err := rf.NetlistOccs(cell, nil)
				if err != nil {
					b.Fatal(err)
				}
				if len(nl.Devices) != len(warm.memo[cell].devices) {
					b.Fatalf("derived %d devices, want %d", len(nl.Devices), len(warm.memo[cell].devices))
				}
				if got := rf.Stats().TemplatesBuilt; got != 4 {
					b.Fatalf("built %d templates, want the 4 neighbour offsets of one arrayed cell", got)
				}
			}
		})
	}
}
