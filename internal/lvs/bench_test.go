package lvs

import (
	"fmt"
	"testing"

	"riot/internal/extract"
	"riot/internal/flatten"
	"riot/internal/geom"
	"riot/internal/rules"
	"riot/internal/verify"
)

// BenchmarkLVSScale runs the from-scratch comparison over NxN abutting
// SRCELL grids — the same workload the extract and DRC scale
// benchmarks use, so the trajectories compare.
func BenchmarkLVSScale(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			e := gridEditor(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := CheckEditor(e)
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

// BenchmarkIncrementalLVS measures the edit-verify loop on a 32x32
// grid: per iteration one cell moves and the whole design re-verifies
// against its declared structure, through the same entry point both
// ways.
//
//   - incremental: the generation-keyed path — spliced extraction off
//     the shared verifier, memoized leaf netlists, re-stitched
//     composition entry;
//   - full: cold caches every iteration (a fresh verifier and a fresh
//     reference memo), the from-scratch comparison cost every
//     re-verify would pay without them.
func BenchmarkIncrementalLVS(b *testing.B) {
	const n = 32
	for _, mode := range []string{"incremental", "full"} {
		b.Run(fmt.Sprintf("%dx%d/%s", n, n, mode), func(b *testing.B) {
			e := gridEditor(b, n)
			in := e.Cell.Instances[n*n/2+n/2]
			v := &verify.Verifier{}
			inc := &Incremental{}
			if _, err := inc.Check(e, v); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := rules.Lambda
				if i%2 == 1 {
					d = -rules.Lambda
				}
				e.MoveInstance(in, geom.Pt(d, 0))
				if mode == "incremental" {
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
// certified iteration re-runs the one-time sub-cell matches from an
// empty store and re-certifies all occurrences. The repeated leaf is
// matched once; the copies settle by device alignment and the forced
// boundary bijection, so the certified cost is the flat cost of the
// un-certified residual (here: nothing) plus linear bookkeeping.
func BenchmarkLVSHierMatch(b *testing.B) {
	for _, n := range []int{32, 64} {
		e := gridEditor(b, n)
		fr, err := flatten.Cell(e.Cell, flatten.Options{})
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
		lay := FromCircuit(ckt)
		b.Run(fmt.Sprintf("%dx%d/flat", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := Compare(ref, lay); !res.Clean {
					b.Fatalf("flat not clean: %v", res.Mismatches)
				}
			}
		})
		b.Run(fmt.Sprintf("%dx%d/certified", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var cs CertStore
				res := compareHier(&rf, &cs, occs, ref, ckt, fr.Occurrences())
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
