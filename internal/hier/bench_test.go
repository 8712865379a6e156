package hier

import (
	"fmt"
	"testing"

	"riot/internal/castore"
	"riot/internal/drc"
	"riot/internal/extract"
	"riot/internal/geom"
)

// BenchmarkHierVerifyScale measures the hierarchical verdict (extract
// + DRC through Engine.Verify) over growing SRCELL arrays. Certificate
// and template memos are warm — the steady editing-loop state — so the
// measured quantity is one whole-design re-verification. Every size
// takes the fast path, which makes the cost size-independent: 256x256
// should time within 2x of 64x64.
func BenchmarkHierVerifyScale(b *testing.B) {
	for _, n := range []int{16, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			top := srArray(b, n, n, geom.R0)
			e := New()
			if _, ok := e.Verify(top); !ok {
				b.Fatalf("engine declined: %v", e.LastDeclineInfo())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := e.Verify(top); !ok {
					b.Fatal("engine declined")
				}
			}
		})
	}
}

// BenchmarkHierGeneralCompose measures the exact general composition
// (no fast path) of n x n individually placed SRCELLs: each op
// composes every placement's pairs, width windows and spacing over
// warm certificate, template and window memos (a live top retains
// nothing), then materializes the circuit — the cost bound for
// irregular designs with the same number of placements.
func BenchmarkHierGeneralCompose(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			_, top := placedGrid(b, fmt.Sprintf("GRID%d", n), n, n, nil)
			e := New()
			if _, ok := e.Verify(top); !ok {
				b.Fatalf("engine declined: %v", e.LastDeclineInfo())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, ok := e.Verify(top)
				if !ok {
					b.Fatal("engine declined")
				}
				if _, err := res.Circuit(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if st := e.Stats(); st.FastRuns != 0 || st.Retained != 0 {
				b.Fatalf("a general compose took a shortcut: %+v", st)
			}
		})
	}
}

// BenchmarkHierSignoff measures array sign-off's fixed shape: each op
// is a fresh engine, as a new CLI run has, over a store that already
// holds the certificate, then Verify and Circuit. Verify proves the
// array on the fast path's lattice; Circuit composes the whole array's
// connectivity by lattice arithmetic (integer work per copy: the
// neighbour templates' unions, the renumbering, the device copy and
// the label table).
func BenchmarkHierSignoff(b *testing.B) {
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			top := srArray(b, n, n, geom.R0)
			mem := castore.NewMem()
			signoff := func() Stats {
				e := New()
				e.AttachDisk(mem, &castore.Signer{})
				res, ok := e.Verify(top)
				if !ok {
					b.Fatalf("engine declined: %v", e.LastDeclineInfo())
				}
				if _, err := res.Circuit(); err != nil {
					b.Fatal(err)
				}
				return e.Stats()
			}
			signoff() // stores the certificate
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if st := signoff(); st.FastRuns != 1 || st.CertDiskHits != 1 || st.CertBuilt != 0 {
					b.Fatalf("not a warm fast-path sign-off: %+v", st)
				}
			}
		})
	}
}

// BenchmarkFlatVerifyScale is the flat reference for the same arrays,
// timeable only at the small end — the quadratic flattened-geometry
// cost is exactly what the hierarchical engine removes.
func BenchmarkFlatVerifyScale(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			top := srArray(b, n, n, geom.R0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := extract.FromCell(top); err != nil {
					b.Fatal(err)
				}
				if _, err := drc.CheckCell(top); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
