package extract

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"riot/internal/core"
	"riot/internal/flatten"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/sticks"
)

// bruteSolve is the quadratic reference solver the indexed one is
// differential-tested against: every diffusion shape minus every
// device's gate in device order, the all-pairs touch test, and linear
// point scans, feeding the solver's own circuit tail. It returns what
// solve returns.
func bruteSolve(fr *flatten.Result) (*Circuit, []flatten.Shape, []int32, error) {
	var frags []flatten.Shape
	for _, s := range fr.Shapes {
		if s.Layer != geom.ND {
			frags = append(frags, s)
			continue
		}
		pieces := []geom.Rect{s.R}
		for _, d := range fr.Devices {
			var next []geom.Rect
			for _, p := range pieces {
				next = append(next, subtract(p, d.Gate)...)
			}
			pieces = next
		}
		for _, p := range pieces {
			frags = append(frags, flatten.Shape{Layer: geom.ND, R: p, Src: s.Src})
		}
	}
	uf := geom.NewUnionFind(len(frags))
	for i := range frags {
		for j := i + 1; j < len(frags); j++ {
			if frags[i].Layer == frags[j].Layer && frags[i].R.Touches(frags[j].R) {
				uf.Union(i, j)
			}
		}
	}
	ckt, nets, err := circuitAndNets(fr, uf, scanLocator(frags))
	return ckt, frags, nets, err
}

// bruteFromCell flattens a cell and solves it with the reference.
func bruteFromCell(c *core.Cell) (*Circuit, error) {
	fr, err := flatten.Cell(c)
	if err != nil {
		return nil, err
	}
	ckt, _, _, err := bruteSolve(fr)
	return ckt, err
}

// scanLocator is the reference point location: a linear scan for the
// lowest matching fragment.
type scanLocator []flatten.Shape

func (l scanLocator) findOnLayer(at geom.Point, layer geom.Layer) int {
	for i, s := range l {
		if s.Layer == layer && s.R.Contains(at) {
			return i
		}
	}
	return -1
}

func (l scanLocator) findAt(at geom.Point, layer geom.Layer) int {
	if layer != geom.LayerNone {
		return l.findOnLayer(at, layer)
	}
	for i, s := range l {
		if s.Layer != geom.NM && s.Layer != geom.NC && s.R.Contains(at) {
			return i
		}
	}
	return -1
}

// TestExtractIndexedMatchesBrute runs the production extractor and the
// brute-force reference over every library cell and several replicated
// arrays, requiring byte-identical circuits (same dense net numbering,
// same transistor list, same label map).
func TestExtractIndexedMatchesBrute(t *testing.T) {
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		t.Fatal(err)
	}
	var cells []*core.Cell
	for _, name := range []string{"SRCELL", "NAND", "OR4", "PIPEM", "PIPEP", "PADIN", "PADOUT"} {
		c, ok := d.Cell(name)
		if !ok {
			t.Fatalf("library cell %s missing", name)
		}
		cells = append(cells, c)
	}
	cells = append(cells, srArray(t, 2, 2), srArray(t, 5, 1), srArray(t, 4, 3))
	for _, c := range cells {
		fast, errF := FromCell(c)
		slow, errB := bruteFromCell(c)
		if (errF == nil) != (errB == nil) {
			t.Fatalf("%s: indexed err=%v, brute err=%v", c.Name, errF, errB)
		}
		if errF != nil {
			continue
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Errorf("%s: indexed and brute circuits differ:\nindexed: %+v\nbrute:   %+v", c.Name, fast, slow)
		}
	}
}

// The soup seeds soupSeed0 .. soupSeed0+soupSeeds-1 are the trials of
// TestExtractConnectivityFuzz and the seed corpus of
// FuzzSolveMatchesBrute.
const soupSeed0, soupSeeds = 1982, 40

// soupResult builds a random flattened design from one seed: rectangle
// soup on three layers with degenerate slivers, a label probing every
// rectangle's center, random contact joins (some with the LayerNone
// wildcard), and transistor stacks mixed in among the rectangles.
func soupResult(seed int64) *flatten.Result {
	layers := []geom.Layer{geom.ND, geom.NP, geom.NM}
	rng := rand.New(rand.NewSource(seed))
	span := 200 + rng.Intn(2000)
	n := 5 + rng.Intn(120)
	fr := &flatten.Result{}
	for i := 0; i < n; i++ {
		if rng.Intn(8) == 0 {
			soupStack(rng, fr, span)
			continue
		}
		x, y := rng.Intn(span), rng.Intn(span)
		w, h := rng.Intn(span/4), rng.Intn(span/4)
		lay := layers[rng.Intn(len(layers))]
		r := geom.R(x, y, x+w, y+h)
		fr.Shapes = append(fr.Shapes, flatten.Shape{Layer: lay, R: r})
		fr.Labels = append(fr.Labels, flatten.Label{At: r.Center(), Layer: lay})
		if rng.Intn(4) == 0 {
			// contact join at this rect's center to a random layer (or
			// the LayerNone wildcard)
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

// soupStack appends a series stack of one to three transistors on one
// diffusion rectangle: poly gate strips across it, with probes just
// beyond each gate on both channel ends. The stack's devices are
// emitted in shuffled order, so the gate index does not hand cutting
// gates back in device order by accident. One device in fifty has a
// probe moved off the diffusion, which floats that channel end unless
// soup diffusion happens to lie there. The gates also cut whatever
// soup diffusion they cross.
func soupStack(rng *rand.Rand, fr *flatten.Result, span int) {
	x, y := rng.Intn(span), rng.Intn(span)
	w := 2 + rng.Intn(span/8) // channel width
	over := rng.Intn(4)       // gate overhang past the diffusion
	var gates []geom.Rect
	end := x
	for k := 1 + rng.Intn(3); k > 0; k-- {
		end += 2 + rng.Intn(span/6) // diffusion before the gate
		gl := 1 + rng.Intn(8)       // gate length
		lo, hi := y-over, y+w+over
		if rng.Intn(3) == 0 {
			// a gate short of the channel width leaves diffusion beside
			// it, so the subtraction order shapes the pieces
			lo, hi = y+rng.Intn(w/2+1), y+w-rng.Intn(w/2+1)
		}
		gates = append(gates, geom.R(end, lo, end+gl, hi))
		end += gl
	}
	diff := geom.R(x, y, end+2+rng.Intn(span/6), y+w)
	// current along x, or along y with the stack mirrored across the
	// diagonal
	mirror := rng.Intn(2) == 0
	rect := func(r geom.Rect) geom.Rect {
		if mirror {
			return geom.R(r.Min.Y, r.Min.X, r.Max.Y, r.Max.X)
		}
		return r
	}
	pt := func(x, y int) geom.Point {
		if mirror {
			return geom.Pt(y, x)
		}
		return geom.Pt(x, y)
	}
	fr.Shapes = append(fr.Shapes, flatten.Shape{Layer: geom.ND, R: rect(diff)})
	for _, i := range rng.Perm(len(gates)) {
		g := gates[i]
		pa, pb := pt(g.Min.X-1, y+w/2), pt(g.Max.X+1, y+w/2)
		if rng.Intn(50) == 0 {
			pb = pt(diff.Max.X+1+rng.Intn(20), y+w/2)
		}
		kind := sticks.Enhancement
		if rng.Intn(3) == 0 {
			kind = sticks.Depletion
		}
		gate := rect(g)
		fr.Shapes = append(fr.Shapes, flatten.Shape{Layer: geom.NP, R: gate})
		fr.Devices = append(fr.Devices, flatten.Device{
			Kind: kind, Gate: gate, Channel: rect(diff),
			ProbeA: pa, ProbeB: pb,
		})
	}
}

// checkSolveMatchesBrute solves one seed's soup with the indexed solver
// and the reference.
func checkSolveMatchesBrute(t *testing.T, seed int64) {
	t.Helper()
	checkResultMatchesBrute(t, fmt.Sprintf("seed %d", seed), soupResult(seed))
}

// checkResultMatchesBrute solves one flattened design with the indexed
// solver and the reference: the circuits, fragment lists and fragment
// nets must be identical, or both solves must fail with the same
// error.
func checkResultMatchesBrute(t *testing.T, name string, fr *flatten.Result) {
	t.Helper()
	fast, fastFrags, fastNets, errF := solve(fr)
	slow, slowFrags, slowNets, errB := bruteSolve(fr)
	if errF != nil || errB != nil {
		if errF == nil || errB == nil || errF.Error() != errB.Error() {
			t.Fatalf("%s: indexed err=%v, brute err=%v", name, errF, errB)
		}
		return
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("%s: indexed and brute circuits differ\nindexed: %+v\nbrute:   %+v", name, fast, slow)
	}
	if !reflect.DeepEqual(fastFrags, slowFrags) || !reflect.DeepEqual(fastNets, slowNets) {
		t.Fatalf("%s: indexed and brute fragments differ", name)
	}
}

// TestExtractConnectivityFuzz cross-checks the indexed solver against
// the reference on random soups: any divergence in gate
// fragmentation, connectivity or point location shows up as a
// circuit, fragment or error mismatch.
func TestExtractConnectivityFuzz(t *testing.T) {
	for s := int64(0); s < soupSeeds; s++ {
		checkSolveMatchesBrute(t, soupSeed0+s)
	}
}

// FuzzSolveMatchesBrute is TestExtractConnectivityFuzz's check over
// fuzzer-chosen seeds.
func FuzzSolveMatchesBrute(f *testing.F) {
	for s := int64(0); s < soupSeeds; s++ {
		f.Add(soupSeed0 + s)
	}
	f.Fuzz(checkSolveMatchesBrute)
}

// wideBus is k mutually overlapping metal strips, so every pair of
// strips touches, crossed by poly strips; every strip and every poly
// crossing carries a label.
func wideBus(k int) *flatten.Result {
	fr := &flatten.Result{}
	for i := 0; i < k; i++ {
		fr.Shapes = append(fr.Shapes, flatten.Shape{Layer: geom.NM, R: geom.R(i, 0, 100000+i, 40)})
		fr.Labels = append(fr.Labels, flatten.Label{At: geom.Pt(i, 20), Layer: geom.NM})
	}
	for x := 5000; x < 100000; x += 10000 {
		fr.Shapes = append(fr.Shapes, flatten.Shape{Layer: geom.NP, R: geom.R(x, -20, x+4, 60)})
		fr.Labels = append(fr.Labels, flatten.Label{At: geom.Pt(x+2, -10), Layer: geom.NP})
	}
	return fr
}

// strappedRails is k die-spanning metal rails, every one crossing
// every vertical line of the die, each joined to the next by a short
// strap at a scattered x. Every 50th strap is missing, so the rails
// fall into several nets; every 100th rail carries a label.
func strappedRails(k int) *flatten.Result {
	fr := &flatten.Result{}
	for i := 0; i < k; i++ {
		fr.Shapes = append(fr.Shapes, flatten.Shape{Layer: geom.NM, R: geom.R(0, 10*i, 100000, 10*i+4)})
		if i%50 != 49 {
			x := 7919 * i % 100000
			fr.Shapes = append(fr.Shapes, flatten.Shape{Layer: geom.NM, R: geom.R(x, 10*i, x+4, 10*i+10)})
		}
		if i%100 == 0 {
			fr.Labels = append(fr.Labels, flatten.Label{At: geom.Pt(0, 10*i+2), Layer: geom.NM})
		}
	}
	return fr
}

// soupWithRails is one soup seed with die-spanning rails, horizontal
// and vertical on random layers, inserted at random places in its
// shape list.
func soupWithRails(seed int64, rails int) *flatten.Result {
	fr := soupResult(seed)
	rng := rand.New(rand.NewSource(seed))
	die := fr.Shapes[0].R
	for _, s := range fr.Shapes {
		die = die.Union(s.R)
	}
	layers := []geom.Layer{geom.ND, geom.NP, geom.NM}
	for k := 0; k < rails; k++ {
		w := 1 + rng.Intn(4)
		x, y := die.Min.X+rng.Intn(die.W()), die.Min.Y+rng.Intn(die.H())
		rail := geom.R(die.Min.X, y, die.Max.X, y+w)
		if k%2 == 1 {
			rail = geom.R(x, die.Min.Y, x+w, die.Max.Y)
		}
		at := rng.Intn(len(fr.Shapes) + 1)
		fr.Shapes = slices.Insert(fr.Shapes, at, flatten.Shape{Layer: layers[rng.Intn(len(layers))], R: rail})
	}
	return fr
}

// TestSolveLargeLayersMatchBrute differential-tests the solver on
// layers far larger than the soups: a bus where all 1000 strips touch
// each other, 5000 strapped die-spanning rails, and a soup with
// die-spanning rails mixed in.
func TestSolveLargeLayersMatchBrute(t *testing.T) {
	for _, tc := range []struct {
		name string
		fr   *flatten.Result
	}{
		{"overlapping-strips", wideBus(1000)},
		{"strapped-rails", strappedRails(5000)},
		{"soup-with-rails", soupWithRails(soupSeed0, 20)},
	} {
		t.Run(tc.name, func(t *testing.T) { checkResultMatchesBrute(t, tc.name, tc.fr) })
	}
}
