package drc

import (
	"fmt"
	"math/rand"
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

// BenchmarkWidthResidues times the width kernel alone on fixed inputs:
// every layer's material within two interaction radii (4 minimum
// widths) of the centre copy and of an edge copy of a 3x3 SRCELL
// array, the scale of a width window's clip in the hier engine, and a
// 1000-rectangle seeded soup, whose bands are crossed by about 25
// rectangles each.
func BenchmarkWidthResidues(b *testing.B) {
	type input struct {
		rects []geom.Rect
		minW  int
	}
	top := benchArray(b, 3)
	fr, err := flatten.Cell(top)
	if err != nil {
		b.Fatal(err)
	}
	arr := top.Instances[0]
	window := func(i, j int) []input {
		box := arr.CopyTransform(i, j).ApplyRect(arr.Cell.BBox())
		var out []input
		for _, l := range checkedLayers(fr) {
			minW := rules.Of(l).MinWidth * rules.Lambda
			clip := box.Inset(-4 * minW)
			var rs []geom.Rect
			for _, r := range fr.LayerRects(l) {
				if c := r.Canon().Intersect(clip); !c.Empty() {
					rs = append(rs, c)
				}
			}
			if minW > 0 && len(rs) > 0 {
				out = append(out, input{rs, minW})
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(1982))
	soup := make([]geom.Rect, 1000)
	for i := range soup {
		x, y := rng.Intn(200*L), rng.Intn(200*L)
		soup[i] = geom.R(x, y, x+L+rng.Intn(8*L), y+L+rng.Intn(8*L))
	}
	for _, c := range []struct {
		name string
		in   []input
	}{
		{"tile/centre", window(1, 1)},
		{"tile/edge", window(0, 1)},
		{"soup1000", []input{{soup, 3 * L}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			slabs := 0
			for i := 0; i < b.N; i++ {
				for _, in := range c.in {
					slabs += len(WidthResidues(in.rects, in.minW))
				}
			}
			b.ReportMetric(float64(slabs)/float64(b.N), "residues/op")
		})
	}
}
