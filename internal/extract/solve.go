package extract

import (
	"fmt"
	"sort"

	"riot/internal/flatten"
	"riot/internal/geom"
)

// solve is the flat solver: connect the design's material, then
// resolve contacts, number nets and read out devices and labels. It
// returns the circuit with the fragment list and each fragment's dense
// net, which SolveNets reads out.
func solve(fr *flatten.Result) (*Circuit, []flatten.Shape, []int32, error) {
	frags, uf, loc := connect(fr)
	ckt, nets, err := circuitAndNets(fr, uf, loc)
	return ckt, frags, nets, err
}

// connect is the pipeline every solve shares — the flat solver and
// CellSolve — so their fragment lists, intra-layer unions and
// point-location tie-breaks agree by construction: fragment diffusion
// at gates, index the fragments by layer for point location, and union
// every touching pair the layer's index reports. The partition does
// not depend on the order the pairs arrive in, and nets are numbered
// by first fragment.
func connect(fr *flatten.Result) ([]flatten.Shape, *geom.UnionFind, *locator) {
	frags := fragment(fr)
	uf := geom.NewUnionFind(len(frags))
	loc := newLocator(frags)
	for layer, ix := range loc.byLayer {
		ids := loc.fragIDs[layer]
		ix.Pairs(0, func(a, b int) { uf.Union(ids[a], ids[b]) })
	}
	return frags, uf, loc
}

// pointFinder resolves points to fragments: the solver's locator, or
// the linear-scan reference the tests compare it with.
type pointFinder interface {
	findOnLayer(at geom.Point, layer geom.Layer) int
	findAt(at geom.Point, layer geom.Layer) int
}

// circuitAndNets resolves contacts, numbers nets densely and reads out
// devices and labels — the order-sensitive tail the solver and its
// test reference share, so their circuits agree byte for byte — and
// returns the per-fragment net assignment the LVS reference derivation
// consumes.
func circuitAndNets(fr *flatten.Result, uf *geom.UnionFind, loc pointFinder) (*Circuit, []int32, error) {
	// contacts join layers at a point
	for _, j := range fr.Joins {
		ia := loc.findAt(j.At[0], j.Layers[0])
		ib := loc.findAt(j.At[1], j.Layers[1])
		if ia >= 0 && ib >= 0 {
			uf.Union(ia, ib)
		}
	}
	netOfFrag, nets := uf.Dense()

	ckt := &Circuit{NetCount: nets, Sites: make([]int32, len(fr.Labels))}
	netAt := func(at geom.Point, layer geom.Layer) (int, bool) {
		i := loc.findOnLayer(at, layer)
		if i < 0 {
			return 0, false
		}
		return int(netOfFrag[i]), true
	}

	for _, d := range fr.Devices {
		gnet, ok := netAt(centerOf(d.Gate), geom.NP)
		if !ok {
			return nil, nil, fmt.Errorf("extract: transistor gate at %v has no poly", d.Gate)
		}
		anet, okA := netAt(d.ProbeA, geom.ND)
		bnet, okB := netAt(d.ProbeB, geom.ND)
		if !okA || !okB {
			return nil, nil, fmt.Errorf("extract: transistor at %v has a floating channel end", d.Gate)
		}
		ckt.Transistors = append(ckt.Transistors, Transistor{Kind: d.Kind, Gate: gnet, A: anet, B: bnet})
	}

	for s, lb := range fr.Labels {
		ckt.Sites[s] = -1
		if n, ok := netAt(lb.At, lb.Layer); ok {
			ckt.Sites[s] = int32(n)
		}
	}
	return ckt, netOfFrag, nil
}

// fragment splits every ND shape around every gate strip that cuts it;
// other shapes pass through as one fragment. Every fragment keeps its
// shape's occurrence id. Cutting gates come from a spatial index over
// the gate strips instead of testing all devices against all
// diffusion; candidates are subtracted in device order (a gate that
// does not intersect a shape is a no-op in subtract), so the pieces
// are exactly those of subtracting every device in turn.
func fragment(fr *flatten.Result) []flatten.Shape {
	gates := geom.NewIndex()
	for _, d := range fr.Devices {
		gates.Insert(d.Gate)
	}
	frags := make([]flatten.Shape, 0, len(fr.Shapes))
	var cand []int
	for _, s := range fr.Shapes {
		if s.Layer != geom.ND {
			frags = append(frags, s)
			continue
		}
		cand = cand[:0]
		gates.QueryRect(s.R, func(id int) bool { cand = append(cand, id); return true })
		sort.Ints(cand)
		pieces := []geom.Rect{s.R}
		for _, id := range cand {
			var next []geom.Rect
			for _, p := range pieces {
				next = append(next, subtract(p, fr.Devices[id].Gate)...)
			}
			pieces = next
		}
		for _, p := range pieces {
			frags = append(frags, flatten.Shape{Layer: geom.ND, R: p, Src: s.Src})
		}
	}
	return frags
}

// locator indexes the fragments with one geom.Index per layer: connect
// finds each layer's touching pairs through it, and it answers "which
// fragment is at this point?" queries with the lowest fragment index
// that matches, so net lookups are deterministic.
type locator struct {
	byLayer map[geom.Layer]*geom.Index
	fragIDs map[geom.Layer][]int // index id -> fragment index, per layer
}

func newLocator(frags []flatten.Shape) *locator {
	l := &locator{byLayer: map[geom.Layer]*geom.Index{}, fragIDs: map[geom.Layer][]int{}}
	for i, s := range frags {
		ix, ok := l.byLayer[s.Layer]
		if !ok {
			ix = geom.NewIndex()
			l.byLayer[s.Layer] = ix
		}
		ix.Insert(s.R)
		l.fragIDs[s.Layer] = append(l.fragIDs[s.Layer], i)
	}
	return l
}

// findOnLayer returns the lowest fragment index on the given layer
// containing at, or -1.
func (l *locator) findOnLayer(at geom.Point, layer geom.Layer) int {
	ix, ok := l.byLayer[layer]
	if !ok {
		return -1
	}
	best := -1
	ids := l.fragIDs[layer]
	ix.QueryPoint(at, func(id int) bool {
		if f := ids[id]; best < 0 || f < best {
			best = f
		}
		return true
	})
	return best
}

// findAt resolves a contact join point. A named layer restricts the
// search to that layer; LayerNone means "any layer below the cut"
// (anything but metal and the cut itself), the rule flatten uses for
// CIF NC boxes.
func (l *locator) findAt(at geom.Point, layer geom.Layer) int {
	if layer != geom.LayerNone {
		return l.findOnLayer(at, layer)
	}
	best := -1
	for layer := range l.byLayer {
		if layer == geom.NM || layer == geom.NC {
			continue
		}
		if f := l.findOnLayer(at, layer); f >= 0 && (best < 0 || f < best) {
			best = f
		}
	}
	return best
}

func centerOf(r geom.Rect) geom.Point { return r.Center() }

// subtract returns r minus s (up to four rectangles).
func subtract(r, s geom.Rect) []geom.Rect {
	i := r.Intersect(s)
	if i.Empty() {
		return []geom.Rect{r}
	}
	var out []geom.Rect
	add := func(x geom.Rect) {
		if !x.Empty() {
			out = append(out, x)
		}
	}
	add(geom.R(r.Min.X, r.Min.Y, r.Max.X, i.Min.Y)) // below
	add(geom.R(r.Min.X, i.Max.Y, r.Max.X, r.Max.Y)) // above
	add(geom.R(r.Min.X, i.Min.Y, i.Min.X, i.Max.Y)) // left
	add(geom.R(i.Max.X, i.Min.Y, r.Max.X, i.Max.Y)) // right
	return out
}
