package drc

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"riot/internal/geom"
)

// TestSubtractRegionInvertedB: both operands of SubtractRegion are
// canonicalized, so an inverted rectangle in b subtracts the area it
// spans, as the same rectangle written corner-first does.
func TestSubtractRegionInvertedB(t *testing.T) {
	a := []geom.Rect{geom.R(0, 0, 10, 10)}
	inverted := geom.Rect{Min: geom.Pt(5, 10), Max: geom.Pt(0, 0)}
	want := []geom.Rect{geom.R(5, 0, 10, 10)}
	if got := SubtractRegion(a, []geom.Rect{inverted}); !reflect.DeepEqual(got, want) {
		t.Errorf("SubtractRegion(%v, [%v]) = %v, want %v", a, inverted, got, want)
	}
	if got := SubtractRegion(a, []geom.Rect{inverted.Canon()}); !reflect.DeepEqual(got, want) {
		t.Errorf("canonical b: got %v, want %v", got, want)
	}
}

// regionSoup returns n rectangles with corners on a grid of the given
// step inside [0, span)², so edges coincide often; about one in eight
// is zero-width and one in six is inverted (Min and Max swapped).
func regionSoup(rng *rand.Rand, n, span, step int) []geom.Rect {
	out := make([]geom.Rect, n)
	for i := range out {
		x, y := step*rng.Intn(span/step), step*rng.Intn(span/step)
		w, h := step*rng.Intn(span/(2*step)+1), step*(1+rng.Intn(span/(2*step)+1))
		if rng.Intn(8) == 0 {
			w = 0
		}
		r := geom.R(x, y, x+w, y+h)
		if rng.Intn(6) == 0 {
			r.Min, r.Max = r.Max, r.Min
		}
		out[i] = r
	}
	return out
}

// strips returns n tall rectangles side by side, in shuffled order,
// that all cross the band [y, y+1].
func strips(rng *rand.Rand, n, y int) []geom.Rect {
	out := make([]geom.Rect, n)
	for i := range out {
		x := 3*i + rng.Intn(2)
		out[i] = geom.R(x, y-1-rng.Intn(4), x+1+rng.Intn(3), y+2+rng.Intn(4))
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestRegionOpsAgainstRaster checks the region calculus against a
// doubled-grid raster on seeded soups: small ones with shared edges,
// zero-width and inverted rectangles, 40-rectangle ones, and strips
// crossing one band by the dozen, beside a soup or alone. Slab lists,
// which need no sorting, go back in as operands too.
func TestRegionOpsAgainstRaster(t *testing.T) {
	rng := rand.New(rand.NewSource(1982))
	for trial := 0; trial < 300; trial++ {
		var a, b []geom.Rect
		switch trial % 3 {
		case 0:
			span := 6 + rng.Intn(30)
			a = regionSoup(rng, 1+rng.Intn(12), span, 1+rng.Intn(2))
			b = regionSoup(rng, rng.Intn(12), span, 1+rng.Intn(2))
		case 1:
			a = regionSoup(rng, 40, 40, 1+rng.Intn(2))
			b = regionSoup(rng, 40, 40, 1)
		case 2:
			a = append(strips(rng, 21+rng.Intn(20), 20), regionSoup(rng, rng.Intn(10), 40, 2)...)
			b = strips(rng, 21+rng.Intn(20), 10+rng.Intn(20))
		}
		frame := geom.R(rng.Intn(10)-5, rng.Intn(10)-5, 20+rng.Intn(30), 20+rng.Intn(30))
		checkRegionOps(t, trial, a, b, frame)
	}
}

// FuzzRegionOps runs the raster check on rectangles decoded from
// bytes: four bytes a rectangle, corners in [0, 48), the first byte
// picking how many rectangles go to a (the rest go to b); the frame
// is the first rectangle of b, or the whole range grown by 2.
func FuzzRegionOps(f *testing.F) {
	f.Add([]byte{2, 0, 0, 10, 10, 5, 0, 15, 10, 10, 5, 0, 0})
	f.Add([]byte{1, 0, 0, 10, 10, 5, 10, 0, 0})
	f.Add([]byte{3, 0, 0, 4, 40, 4, 0, 8, 40, 8, 0, 12, 40, 0, 20, 40, 22})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		var rects []geom.Rect
		for i := 1; i+4 <= len(data) && len(rects) < 64; i += 4 {
			c := func(k int) int { return int(data[i+k]) % 48 }
			rects = append(rects, geom.Rect{Min: geom.Pt(c(0), c(1)), Max: geom.Pt(c(2), c(3))})
		}
		na := min(int(data[0])%8+1, len(rects))
		a, b := rects[:na], rects[na:]
		frame := geom.R(-2, -2, 50, 50)
		if len(b) > 0 {
			frame = b[0].Canon()
		}
		checkRegionOps(t, 0, a, b, frame)
	})
}

// checkRegionOps checks MergeRegion, SubtractRegion and the sweep's
// complement on one input, then the union again with its own
// slabs as operands.
func checkRegionOps(t *testing.T, trial int, a, b []geom.Rect, frame geom.Rect) {
	t.Helper()
	merged := MergeRegion(a)
	checkRegionAgainstRaster(t, trial, "merge", merged, a, nil)
	checkRegionAgainstRaster(t, trial, "subtract", SubtractRegion(a, b), a, b)
	checkRegionAgainstRaster(t, trial, "complement", new(sweep).complement(b, frame), []geom.Rect{frame}, b)
	checkRegionAgainstRaster(t, trial, "subtract slabs", SubtractRegion(merged, MergeRegion(b)), a, b)
	checkRegionAgainstRaster(t, trial, "complement slabs", new(sweep).complement(merged, frame), []geom.Rect{frame}, a)
	if again := MergeRegion(merged); !reflect.DeepEqual(again, merged) {
		t.Fatalf("trial %d: merging slabs %v changed them to %v", trial, merged, again)
	}
}

// checkRegionAgainstRaster compares the slabs of op with the region
// pos minus neg (each a union of canonicalized rectangles) on the
// doubled grid, where odd-odd points are unit-cell centres. It checks
// that
//   - no cell lies inside two slabs (slabs are interior-disjoint);
//   - the union equals the raster set on interior points, with the
//     closed-edge allowance of checkWidthAgainstRaster: every point
//     strictly inside a slab lies in some closed pos rectangle and
//     inside no neg one, and every cell of pos minus neg lies in some
//     slab;
//   - the form is canonical: within a band, spans are maximal and do
//     not touch, and no slab sits directly on another with the same
//     x-span.
func checkRegionAgainstRaster(t *testing.T, trial int, op string, slabs, pos, neg []geom.Rect) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("trial %d %s (pos %v, neg %v, slabs %v): "+format,
			append([]any{trial, op, pos, neg, slabs}, args...)...)
	}
	pos, neg = canonRects(pos), canonRects(neg)
	if len(pos) == 0 {
		if len(slabs) != 0 {
			fail("slabs from an empty region")
		}
		return
	}
	box := bbox(pos)
	x0, y0 := 2*box.Min.X, 2*box.Min.Y
	w, h := 2*box.W()+1, 2*box.H()+1
	inPos, inNeg, inSlab := make([]bool, w*h), make([]bool, w*h), make([]int, w*h)
	paint := func(r geom.Rect, open bool, fn func(k int)) {
		r = r.Intersect(box)
		d := 0
		if open {
			d = 1
		}
		for py := 2*r.Min.Y + d; py <= 2*r.Max.Y-d; py++ {
			for px := 2*r.Min.X + d; px <= 2*r.Max.X-d; px++ {
				fn((py-y0)*w + px - x0)
			}
		}
	}
	for _, r := range pos {
		paint(r, false, func(k int) { inPos[k] = true })
	}
	for _, r := range neg {
		paint(r, true, func(k int) { inNeg[k] = true })
	}
	for _, s := range slabs {
		if s.Empty() || !box.ContainsRect(s) {
			fail("slab %v is empty or outside the region's box %v", s, box)
		}
		paint(s, true, func(k int) { inSlab[k]++ })
	}
	for k := range inSlab {
		px, py := x0+k%w, y0+k/w
		cell := px%2 != 0 && py%2 != 0
		want := inPos[k] && !inNeg[k]
		switch {
		case cell && inSlab[k] > 1:
			fail("cell at doubled (%d,%d) lies in %d slabs", px, py, inSlab[k])
		case inSlab[k] > 0 && !want:
			fail("slab interior point at doubled (%d,%d) is outside the region", px, py)
		case cell && want && inSlab[k] == 0:
			fail("region cell at doubled (%d,%d) lies in no slab", px, py)
		}
	}
	var ys []int
	for _, s := range slabs {
		ys = append(ys, s.Min.Y, s.Max.Y)
	}
	slices.Sort(ys)
	ys = slices.Compact(ys)
	for i := 0; i+1 < len(ys); i++ {
		var band []geom.Rect
		for _, s := range slabs {
			if s.Min.Y <= ys[i] && s.Max.Y >= ys[i+1] {
				band = append(band, s)
			}
		}
		for _, s := range band {
			for _, u := range band {
				if s.Max.X == u.Min.X {
					fail("slabs %v and %v touch within band [%d, %d]", s, u, ys[i], ys[i+1])
				}
			}
		}
	}
	for _, s := range slabs {
		for _, u := range slabs {
			if s.Max.Y == u.Min.Y && s.Min.X == u.Min.X && s.Max.X == u.Max.X {
				fail("slab %v sits on %v with the same x-span", u, s)
			}
		}
	}
}

func canonRects(rs []geom.Rect) []geom.Rect {
	var out []geom.Rect
	for _, r := range rs {
		if r = r.Canon(); !r.Empty() {
			out = append(out, r)
		}
	}
	return out
}
