package extract

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"riot/internal/flatten"
	"riot/internal/geom"
)

// soupResult builds a random flatten.Result: shapes with degenerate
// slivers, random layers, devices with gates cutting diffusion, joins
// and labels — the same distribution the brute-differential fuzz uses,
// plus devices so the parallel fragment path is exercised.
func soupResult(rng *rand.Rand, n int) *flatten.Result {
	layers := []geom.Layer{geom.ND, geom.NP, geom.NM}
	span := 200 + rng.Intn(2000)
	fr := &flatten.Result{}
	for i := 0; i < n; i++ {
		x, y := rng.Intn(span), rng.Intn(span)
		w, h := rng.Intn(span/4), rng.Intn(span/4)
		lay := layers[rng.Intn(len(layers))]
		r := geom.R(x, y, x+w, y+h)
		fr.Shapes = append(fr.Shapes, flatten.Shape{Layer: lay, R: r})
		fr.Labels = append(fr.Labels, flatten.NamedLabel{Name: fmt.Sprintf("s%d", i), Label: flatten.Label{At: r.Center(), Layer: lay}})
		if rng.Intn(4) == 0 {
			to := geom.LayerNone
			if rng.Intn(2) == 0 {
				to = layers[rng.Intn(len(layers))]
			}
			fr.Joins = append(fr.Joins, flatten.Join{
				At:     [2]geom.Point{r.Center(), r.Center()},
				Layers: [2]geom.Layer{lay, to},
			})
		}
	}
	return fr
}

// copyResult copies the solver's inputs so a second solve never sees
// per-layer caches built by the first.
func copyResult(fr *flatten.Result) *flatten.Result {
	return &flatten.Result{Shapes: fr.Shapes, Devices: fr.Devices,
		Joins: fr.Joins, Labels: fr.Labels, SrcBoxes: fr.SrcBoxes}
}

// TestParallelSolveMatchesSequential forces the concurrent solver
// (per-layer sweep goroutines, overlapped locator builds, chunked
// fragmentation) against the sequential one on random soups and SRCELL
// arrays, requiring byte-identical circuits. Run under -race this also
// proves the layer-disjoint UnionFind sharing and the gate-index
// clones are sound.
func TestParallelSolveMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		fr := soupResult(rng, 50+rng.Intn(3000))
		seq, _, errS := solveWorkers(copyResult(fr), false, 1)
		par, _, errP := solveWorkers(copyResult(fr), false, 4)
		if (errS == nil) != (errP == nil) {
			t.Fatalf("trial %d: sequential err=%v parallel err=%v", trial, errS, errP)
		}
		if errS != nil {
			continue
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("trial %d: parallel and sequential circuits differ\npar: %+v\nseq: %+v", trial, par, seq)
		}
	}

	for _, nx := range []int{2, 6} {
		top := srArray(t, nx, 3)
		fr, err := flatten.Cell(top, flatten.Options{})
		if err != nil {
			t.Fatal(err)
		}
		seq, _, errS := solveWorkers(copyResult(fr), false, 1)
		par, _, errP := solveWorkers(copyResult(fr), false, 4)
		if errS != nil || errP != nil {
			t.Fatalf("array %dx3: errs %v / %v", nx, errS, errP)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("array %dx3: parallel and sequential circuits differ", nx)
		}
	}
}

// TestSweepSkipMatchesSlice runs both active-set structures over the
// same event streams (random soups big and overlapping enough to make
// the sweep work) and requires the identical union structure, pinning
// the skip-list path that only engages above the active-set crossover.
func TestSweepSkipMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(800)
		span := 100 + rng.Intn(600)
		frags := make([]flatten.Shape, n)
		idxs := make([]int, n)
		for i := range frags {
			x, y := rng.Intn(span), rng.Intn(span)
			frags[i] = flatten.Shape{Layer: geom.ND,
				R: geom.R(x, y, x+rng.Intn(span/2), y+rng.Intn(span/2))}
			idxs[i] = i
		}
		ufSlice := geom.NewUnionFind(n)
		ufSkip := geom.NewUnionFind(n)
		events := sweepEvents(frags, idxs)
		sweepSlice(frags, events, ufSlice)
		sweepSkip(frags, events, ufSkip)
		// same partition: equal root equivalence on every pair against
		// a canonical relabeling
		canon := func(uf *geom.UnionFind) []int {
			label := map[int]int{}
			out := make([]int, n)
			for i := 0; i < n; i++ {
				r := uf.Find(i)
				id, ok := label[r]
				if !ok {
					id = len(label)
					label[r] = id
				}
				out[i] = id
			}
			return out
		}
		a, b := canon(ufSlice), canon(ufSkip)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: partitions differ at %d", trial, i)
			}
		}
	}
}
