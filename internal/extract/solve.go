package extract

import (
	"fmt"
	"slices"
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
	ckt, nets, err := circuitAndNets(fr, frags, uf, loc)
	return ckt, frags, nets, err
}

// connect is the fragment-and-sweep pipeline every solve shares — the
// flat solver and CellSolve — so their fragment lists,
// intra-layer unions and point-location tie-breaks agree by
// construction: fragment diffusion at gates, union touching same-layer
// fragments with one sweep per layer, and index the fragments for
// point location.
func connect(fr *flatten.Result) ([]flatten.Shape, *geom.UnionFind, *locator) {
	frags := fragment(fr)
	uf := geom.NewUnionFind(len(frags))
	byLayer := map[geom.Layer][]int{}
	for i, s := range frags {
		byLayer[s.Layer] = append(byLayer[s.Layer], i)
	}
	for _, idxs := range byLayer {
		sweepUnion(frags, idxs, uf)
	}
	return frags, uf, newLocator(frags)
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
func circuitAndNets(fr *flatten.Result, frags []flatten.Shape, uf *geom.UnionFind, loc pointFinder) (*Circuit, []int32, error) {
	// contacts join layers at a point
	for _, j := range fr.Joins {
		ia := loc.findAt(j.At[0], j.Layers[0])
		ib := loc.findAt(j.At[1], j.Layers[1])
		if ia >= 0 && ib >= 0 {
			uf.Union(ia, ib)
		}
	}
	netOfFrag, nets := denseNets(uf, len(frags))

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

// denseNets numbers the forest's sets densely in first-fragment order
// (roots are fragment indices, so a flat table replaces a map on this
// hot path) and returns each fragment's net and the net count.
func denseNets(uf *geom.UnionFind, n int) ([]int32, int) {
	netID := make([]int32, n)
	for i := range netID {
		netID[i] = -1
	}
	nets := 0
	netOf := make([]int32, n)
	for i := range netOf {
		root := uf.Find(i)
		if netID[root] < 0 {
			netID[root] = int32(nets)
			nets++
		}
		netOf[i] = netID[root]
	}
	return netOf, nets
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

// sweepActiveSliceMax is the measured active-set size above which
// sweepUnion switches its active set from the ordered slice to the
// geom.SweepSet skip list. The slice's contiguous memmove beats the
// skip list's pointer walk decisively at small and medium sizes
// (BenchmarkSweepSetCrossover in internal/geom, and direct layer-sweep
// measurements on 32x32 SRCELL arrays where max active is ~300, both
// show the slice 3-4x faster); what the skip list removes is the
// quadratic worst case — O(active) memmove per insert/delete once
// thousands of long rectangles are alive at once (wide buses, full-die
// rails). The sweep counts the true maximum active size in a cheap
// pre-pass over the sorted events and only then picks the structure,
// so ordinary layers never regress.
const sweepActiveSliceMax = 4096

// sweepUnion unions every touching pair among the given same-layer
// fragments with one sweep over their x-extents. Events are packed
// into uint64s ordered by x with entries before exits, so material
// that only shares an edge or corner (x ranges meeting exactly) still
// counts as touching — the closed-interval rule Rect.Touches
// implements. The active set is ordered by (Min.Y, frag); an entering
// rectangle unions with the active prefix whose Min.Y does not exceed
// its Max.Y. Large layers keep the active set in a geom.SweepSet skip
// list, small ones in an ordered slice; both orders are identical, so
// the union structure is too.
func sweepUnion(frags []flatten.Shape, idxs []int, uf *geom.UnionFind) {
	if len(idxs) < 2 {
		return
	}
	events := sweepEvents(frags, idxs)

	// pre-pass: the peak number of simultaneously active rectangles
	// decides the active-set structure
	const exitBit = 1 << 32
	maxActive, cur := 0, 0
	for _, ev := range events {
		if ev&exitBit != 0 {
			cur--
		} else if cur++; cur > maxActive {
			maxActive = cur
		}
	}
	if maxActive > sweepActiveSliceMax {
		sweepSkip(frags, events, uf)
		return
	}
	sweepSlice(frags, events, uf)
}

// sweepEvents builds the sorted event stream for a sweep over the
// given fragments' x-extents. Each event packs x (biased to unsigned,
// 31 bits) in the high bits, then the entry/exit bit (entries first),
// then the fragment id — so a plain integer sort yields the sweep
// order. Design coordinates are centimicrons well inside +-2^30;
// anything outside falls back to the comparator sort.
func sweepEvents(frags []flatten.Shape, idxs []int) []uint64 {
	const exitBit = 1 << 32
	const xBias = 1 << 30
	events := make([]uint64, 0, 2*len(idxs))
	packable := true
	for _, i := range idxs {
		r := frags[i].R
		if r.Min.X <= -xBias || r.Max.X >= xBias || i >= exitBit {
			packable = false
			break
		}
		ux0 := uint64(int64(r.Min.X) + xBias)
		ux1 := uint64(int64(r.Max.X) + xBias)
		events = append(events, ux0<<33|uint64(i), ux1<<33|exitBit|uint64(i))
	}
	if packable {
		slices.Sort(events)
	} else {
		events = events[:0]
		for _, i := range idxs {
			events = append(events, uint64(i), exitBit|uint64(i))
		}
		// sort by the same (x, entries-first, frag) order, reading
		// coordinates through the fragment list
		slices.SortFunc(events, func(a, b uint64) int {
			fa, fb := int(a&(exitBit-1)), int(b&(exitBit-1))
			ea, eb := a&exitBit != 0, b&exitBit != 0
			xa, xb := frags[fa].R.Min.X, frags[fb].R.Min.X
			if ea {
				xa = frags[fa].R.Max.X
			}
			if eb {
				xb = frags[fb].R.Max.X
			}
			switch {
			case xa != xb:
				if xa < xb {
					return -1
				}
				return 1
			case ea != eb:
				if !ea {
					return -1
				}
				return 1
			case fa != fb:
				if fa < fb {
					return -1
				}
				return 1
			}
			return 0
		})
	}
	return events
}

// sweepSlice is sweepUnion's small-layer path: the active set is an
// ordered slice with binary-search insert/delete.
func sweepSlice(frags []flatten.Shape, events []uint64, uf *geom.UnionFind) {
	const exitBit = 1 << 32
	var active []int
	less := func(f, g int) bool {
		if frags[f].R.Min.Y != frags[g].R.Min.Y {
			return frags[f].R.Min.Y < frags[g].R.Min.Y
		}
		return f < g
	}
	for _, ev := range events {
		frag := int(ev & (exitBit - 1))
		if ev&exitBit != 0 {
			at := sort.Search(len(active), func(k int) bool { return !less(active[k], frag) })
			if at < len(active) && active[at] == frag {
				active = append(active[:at], active[at+1:]...)
			}
			continue
		}
		r := frags[frag].R
		// all active rects with Min.Y <= r.Max.Y are y-candidates
		end := sort.Search(len(active), func(k int) bool { return frags[active[k]].R.Min.Y > r.Max.Y })
		for _, a := range active[:end] {
			if frags[a].R.Max.Y >= r.Min.Y {
				uf.Union(a, frag)
			}
		}
		at := sort.Search(len(active), func(k int) bool { return !less(active[k], frag) })
		active = append(active, 0)
		copy(active[at+1:], active[at:])
		active[at] = frag
	}
}

// sweepSkip is sweepUnion's large-layer path: the active set is a skip
// list keyed by (Min.Y, frag).
func sweepSkip(frags []flatten.Shape, events []uint64, uf *geom.UnionFind) {
	const exitBit = 1 << 32
	active := geom.NewSweepSet()
	for _, ev := range events {
		frag := int(ev & (exitBit - 1))
		minY := frags[frag].R.Min.Y
		if ev&exitBit != 0 {
			active.Delete(minY, frag)
			continue
		}
		r := frags[frag].R
		active.VisitPrefix(r.Max.Y, func(a int) bool {
			if frags[a].R.Max.Y >= r.Min.Y {
				uf.Union(a, frag)
			}
			return true
		})
		active.Insert(minY, frag)
	}
}

// locator answers "which fragment is at this point?" queries with one
// geom.Index per layer. It returns the lowest fragment index that
// matches, so net lookups are deterministic.
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
