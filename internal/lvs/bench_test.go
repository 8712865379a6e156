package lvs

import (
	"fmt"
	"testing"

	"riot/internal/core"
	"riot/internal/extract"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/rules"
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

// BenchmarkLVSHierMatch isolates the matching stage (reference and
// circuit prebuilt and shared): the flat comparison against the
// certified path, the walk-order witness over both device lists and
// both label tables.
func BenchmarkLVSHierMatch(b *testing.B) {
	for _, n := range []int{32, 64} {
		e := gridEditor(b, n)
		ckt, err := extract.FromCell(e.Cell)
		if err != nil {
			b.Fatal(err)
		}
		var rf Reference
		ref, leaves, err := rf.unnamed(e.Cell, nil)
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
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := rf.compare(e.Cell, ref, leaves, ckt)
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

// BenchmarkLeafEntry measures what each session pays per distinct
// leaf, in process: a fresh Reference extracts SRCELL alone for its
// entry.
func BenchmarkLeafEntry(b *testing.B) {
	sr := arrayEditor(b, 1).Cell.Instances[0].Cell
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rf Reference
		if e := rf.entry(sr); e.err != nil {
			b.Fatal(e.err)
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
// single ARRAY instance as a sign-off session pays it when the template
// witness declines the array (no fast-path lattice: under 14 copies a
// side, or not DRC-clean; or a check it cannot settle): each iteration
// is a fresh Reference, so the time is one standalone leaf extraction
// plus the array stitch — the four neighbour templates replayed by
// lattice arithmetic (no copy index), device copy, union-find,
// renumbering, labels.
func BenchmarkReferenceArray(b *testing.B) {
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			cell := arrayEditor(b, n).Cell
			var warm Reference
			if _, _, err := warm.unnamed(cell, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var rf Reference
				nl, _, err := rf.unnamed(cell, nil)
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

// BenchmarkArrayLVS measures LVS alone on a single ARRAY instance, as a
// sign-off session pays it after its verify: each iteration is a fresh
// Incremental over the report the hier verifier already holds for the
// snapshot, so the time is one standalone leaf extraction, the four
// neighbour templates and the template witness, none of which grows
// with the copies.
func BenchmarkArrayLVS(b *testing.B) {
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			snap := arrayEditor(b, n).Snapshot()
			v := &verify.Verifier{Hier: true}
			if _, err := v.VerifySnapshot(snap); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inc := &Incremental{}
				res, err := inc.CheckSnapshot(snap, v)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Clean || inc.Ref.Stats().TemplateCertified != 1 {
					b.Fatalf("clean %v, %d check(s) settled by template; want a clean template witness", res.Clean, inc.Ref.Stats().TemplateCertified)
				}
			}
		})
	}
}
