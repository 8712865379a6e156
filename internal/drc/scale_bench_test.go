package drc

import (
	"fmt"
	"testing"

	"riot/internal/core"
	"riot/internal/flatten"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/rules"
)

func benchArray(b *testing.B, n int) *core.Cell {
	b.Helper()
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		b.Fatal(err)
	}
	top := core.NewComposition(fmt.Sprintf("TOP%d", n))
	if err := d.AddCell(top); err != nil {
		b.Fatal(err)
	}
	sr, _ := d.Cell("SRCELL")
	in := core.NewInstance("a", sr, geom.Identity)
	in.Nx, in.Ny = n, n
	in.Sx, in.Sy = 20*rules.Lambda, 24*rules.Lambda
	top.Instances = append(top.Instances, in)
	return top
}

// BenchmarkDRCScale times the full design-rule check (flatten + width
// opening + indexed spacing over every layer) of N x N SRCELL arrays —
// the same replicated workload BenchmarkExtractScale uses, so the two
// verification passes over one indexed geometry core can be compared
// directly.
func BenchmarkDRCScale(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64} {
		top := benchArray(b, n)
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vs, err := CheckCell(top)
				if err != nil {
					b.Fatal(err)
				}
				if len(vs) != 0 {
					b.Fatalf("array not clean: %v", vs)
				}
			}
		})
	}
}

// BenchmarkDRCCheckOnly isolates the rule evaluation from flattening:
// one flatten.Result is reused across iterations (per-layer indexes
// build once, lazily).
func BenchmarkDRCCheckOnly(b *testing.B) {
	top := benchArray(b, 16)
	fr, err := flatten.Cell(top)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := Check(fr); len(vs) != 0 {
			b.Fatalf("array not clean: %v", vs)
		}
	}
}

// BenchmarkDRCOverlappingStrips checks one layer of 1000 mutually
// overlapping 400-lambda strips through CheckLayer: every pair
// touches, and every strip is far longer than a square grid's bin.
// The strips merge into one region 1.6 lambda tall, so the report is
// one width violation.
func BenchmarkDRCOverlappingStrips(b *testing.B) {
	rects := make([]geom.Rect, 1000)
	for i := range rects {
		rects[i] = geom.R(10*i, 0, 100000+10*i, 400)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := CheckLayer(geom.NM, rects, rules.Of(geom.NM)); len(vs) != 1 || vs[0].Rule != RuleWidth {
			b.Fatalf("want one width violation, got %v", vs)
		}
	}
}
