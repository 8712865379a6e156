package verify

import (
	"fmt"
	"testing"

	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/hier"
	"riot/internal/lib"
	"riot/internal/obs"
	"riot/internal/rules"
)

// benchGrid builds an n x n grid of individually placed, abutting
// SRCELL instances under an editor — the editable form of the
// replicated-array workload the extract and DRC scale benchmarks use.
func benchGrid(b *testing.B, n int) *core.Editor {
	b.Helper()
	e := gridEditorN(b, n)
	return e
}

func gridEditorN(tb testing.TB, n int) *core.Editor {
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		tb.Fatal(err)
	}
	top := core.NewComposition(fmt.Sprintf("TOP%d", n))
	if err := d.AddCell(top); err != nil {
		tb.Fatal(err)
	}
	e, err := core.NewEditor(d, top)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n*n; i++ {
		x, y := i%n, i/n
		tr := geom.MakeTransform(geom.R0, geom.Pt(x*20*rules.Lambda, y*24*rules.Lambda))
		if _, err := e.CreateInstance("SRCELL", fmt.Sprintf("c%d", i), tr, 1, 1, 0, 0); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// BenchmarkIncrementalVerify measures the edit-verify loop on a 32x32
// grid: per iteration, one cell moves and the whole design re-verifies
// (extract + DRC).
//
//   - hier: the shipped default, a Verifier with Hier set — certificates
//     composed over placements, the circuit materialized;
//   - full: the zero Verifier, the scratch flat run that serves
//     -hier=false and the engine's declines.
//
// The edit alternates a one-lambda displacement of a mid-array cell,
// so every iteration really dirties geometry (rails detach and
// reattach) rather than hitting the unchanged-generation fast path.
func BenchmarkIncrementalVerify(b *testing.B) {
	const n = 32
	for _, mode := range []string{"hier", "full"} {
		b.Run(fmt.Sprintf("%dx%d/%s", n, n, mode), func(b *testing.B) {
			e := benchGrid(b, n)
			in := e.Cell.Instances[n*n/2+n/2]
			v := &Verifier{Hier: mode == "hier"}
			if _, err := v.Verify(e); err != nil {
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
				if _, err := v.Verify(e); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if st := v.Stats(); mode == "hier" && st.Full > 0 {
				b.Fatalf("hier mode fell back to the scratch flat run: %+v", st)
			}
		})
	}
}

// BenchmarkPoisonedVerify measures what a poisoned design costs: an
// n x n grid of individually placed SRCELLs whose centre cell is
// rotated R90 in place, burying gates under its neighbours' diffusion.
// The engine composes exactly or declines, so it declines the run as
// poison and every iteration pays the scratch flat run; the benchmark
// fails if any run composes.
func BenchmarkPoisonedVerify(b *testing.B) {
	for _, n := range []int{16, 32} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			e := benchGrid(b, n)
			e.OrientInstance(e.Cell.Instances[n*n/2+n/2], geom.R90)
			top := e.Snapshot().Cell
			v := &Verifier{Hier: true}
			v.SetLog(obs.Discard)
			if _, err := v.VerifyCell(top); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.VerifyCell(top); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if d := v.HierDeclineInfo(); d == nil || d.Cond != hier.CondPoison || v.Stats().Hier > 0 {
				b.Fatalf("poisoned grid not declined as poison: decline %+v, stats %+v", d, v.Stats())
			}
		})
	}
}
