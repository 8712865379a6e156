package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"riot/internal/geom"
)

// TestLatticeArithmeticMatchesBruteForce pins PairOffsets and
// CopiesTouching against placing every copy: over random boxes,
// reaches, orientations and pitches of either sign (zero on a one-copy
// axis), PairOffsets returns exactly the forward offsets of the copy
// pairs whose placed boxes, one grown by r, touch, ordered by DI·Ny+DJ
// then DI; and CopiesTouching returns exactly the copies whose placed
// box touches a point or a rectangle, in walk order.
func TestLatticeArithmeticMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 400; trial++ {
		in := &Instance{Tr: geom.MakeTransform(geom.Orient(rng.Intn(geom.NumOrients)), geom.Pt(rng.Intn(41)-20, rng.Intn(41)-20)),
			Nx: 1 + rng.Intn(6), Ny: 1 + rng.Intn(6)}
		for _, s := range []*int{&in.Sx, &in.Sy} {
			*s = rng.Intn(31) - 15
		}
		if in.Nx == 1 && rng.Intn(2) == 0 {
			in.Sx = 0
		}
		if in.Ny == 1 && rng.Intn(2) == 0 {
			in.Sy = 0
		}
		if in.Nx > 1 && in.Sx == 0 || in.Ny > 1 && in.Sy == 0 {
			continue
		}
		b := geom.R(rng.Intn(21)-10, rng.Intn(21)-10, rng.Intn(21)-10, rng.Intn(21)-10)
		r := rng.Intn(6)
		placed := func(i, j int) geom.Rect { return in.CopyTransform(i, j).ApplyRect(b) }

		var want []Offset
		seen := map[Offset]bool{}
		for v := 1; v < in.Nx*in.Ny; v++ {
			for u := 0; u < v; u++ {
				ui, uj, vi, vj := u/in.Ny, u%in.Ny, v/in.Ny, v%in.Ny
				o := Offset{vi - ui, vj - uj}
				if !seen[o] && placed(ui, uj).Inset(-r).Touches(placed(vi, vj)) {
					seen[o] = true
					want = append(want, o)
				}
			}
		}
		sort.Slice(want, func(x, y int) bool {
			dx, dy := want[x].DI*in.Ny+want[x].DJ, want[y].DI*in.Ny+want[y].DJ
			return dx < dy || dx == dy && want[x].DI < want[y].DI
		})
		got := in.PairOffsets(b, r)
		if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d %+v box %v r %d: PairOffsets = %v, placing every copy gives %v", trial, in, b, r, got, want)
		}

		for k := 0; k < 20; k++ {
			// a point half the time, else a rectangle
			q := geom.R(rng.Intn(161)-80, rng.Intn(161)-80, 0, 0)
			q.Max = q.Min
			if k%2 == 1 {
				q.Max = q.Min.Add(geom.Pt(rng.Intn(40), rng.Intn(40)))
			}
			var wantAt, gotAt [][2]int
			for i := 0; i < in.Nx; i++ {
				for j := 0; j < in.Ny; j++ {
					if placed(i, j).Touches(q) {
						wantAt = append(wantAt, [2]int{i, j})
					}
				}
			}
			in.CopiesTouching(b, q, func(i, j int) { gotAt = append(gotAt, [2]int{i, j}) })
			if !reflect.DeepEqual(gotAt, wantAt) {
				t.Fatalf("trial %d %+v box %v: CopiesTouching(%v) = %v, want %v", trial, in, b, q, gotAt, wantAt)
			}
		}
	}
}
