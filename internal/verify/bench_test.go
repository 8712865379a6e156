package verify

import (
	"fmt"
	"testing"

	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/lib"
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
