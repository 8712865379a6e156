// Package river implements Riot's multi-layer river router: "a routed
// connection between parallel sets of points where no routes change
// layers and no two routes on the same layer cross. The Riot river
// router cannot turn corners, and it ignores objects in the path of the
// route."
//
// The router connects a vector of bottom terminals to a vector of top
// terminals, pairing them by index. Each net is realized as at most one
// horizontal jog between two vertical runs, on the net's own layer.
// Jogs are assigned to horizontal tracks inside the routing channel;
// when a channel's track capacity is exhausted, "another channel is
// added and the route is continued in the new channel" — the route cell
// simply grows taller by one channel.
//
// The output is a Sticks cell (the paper: "Riot then makes a new Sticks
// cell containing the river route wires") whose bottom-edge and
// top-edge connectors reproduce the two terminal vectors, so the cell
// abuts cleanly against both instances being connected.
package river

import (
	"fmt"
	"sort"

	"riot/internal/geom"
	"riot/internal/rules"
	"riot/internal/sticks"
)

// Terminal is one connection point on an edge of the routing channel:
// its position along the edge, its layer, and the width of the wire
// that must reach it (zero means layer minimum).
type Terminal struct {
	Name  string
	X     int
	Layer geom.Layer
	Width int
}

// EffWidth returns the terminal's wire width with the layer minimum
// substituted for zero.
func (t Terminal) EffWidth() int {
	if t.Width > 0 {
		return t.Width
	}
	return rules.MinWidth(t.Layer)
}

// Options tunes the router.
type Options struct {
	// TracksPerChannel caps how many jog tracks fit in one routing
	// channel before the router opens another. Zero means the default
	// of 8. A very large value reproduces single-channel behaviour.
	TracksPerChannel int
	// CellName names the generated route cell; empty means "ROUTE".
	CellName string
	// ExactHeight, when positive, forces the channel to exactly this
	// height (in lambda). Riot uses it for routes "made without moving
	// the from instance": the channel must fill the existing gap
	// between two fixed instances. Routing fails — with a diagnostic
	// naming the required versus available jog tracks — if the natural
	// height does not fit: a fixed gap has no room for the overflow
	// channels the unconstrained router would otherwise stack, so the
	// route must never come out taller than the gap. Negative values
	// are rejected outright (a caller measuring a gap between already
	// overlapping instances must not silently fall back to an
	// unconstrained route).
	ExactHeight int
}

// Result describes a finished route.
type Result struct {
	Cell     *sticks.Cell // the generated route cell, lambda units
	Height   int          // channel height in lambda (cell bbox height)
	Tracks   int          // jog tracks used
	Channels int          // routing channels used (>= 1)
	Length   int          // total wire length in lambda
}

// net is one bottom-to-top connection being routed.
type net struct {
	idx    int
	a, b   int // bottom and top positions
	layer  geom.Layer
	width  int
	track  int // 0 = straight, else 1-based track number from channel top
	bottom Terminal
	top    Terminal
}

// Route river-routes bottom[i] to top[i] for every i. It fails when the
// vectors disagree in length, a pair changes layer, a terminal is on a
// non-routable layer, or two same-layer connections cross (a river
// route cannot cross; the paper's designers abut or re-order instead).
func Route(bottom, top []Terminal, opt Options) (*Result, error) {
	if len(bottom) != len(top) {
		return nil, fmt.Errorf("river: %d bottom terminals vs %d top", len(bottom), len(top))
	}
	if len(bottom) == 0 {
		return nil, fmt.Errorf("river: nothing to route")
	}
	if opt.ExactHeight < 0 {
		return nil, fmt.Errorf("river: forced channel height %d is negative (the instances already overlap; no route can fill that gap)",
			opt.ExactHeight)
	}
	cap := opt.TracksPerChannel
	if cap <= 0 {
		cap = 8
	}
	name := opt.CellName
	if name == "" {
		name = "ROUTE"
	}

	nets := make([]*net, len(bottom))
	for i := range bottom {
		if bottom[i].Layer != top[i].Layer {
			return nil, fmt.Errorf("river: connection %d changes layer %v -> %v (river routes cannot change layers)",
				i, bottom[i].Layer, top[i].Layer)
		}
		if !bottom[i].Layer.Routable() {
			return nil, fmt.Errorf("river: connection %d on non-routable layer %v", i, bottom[i].Layer)
		}
		w := bottom[i].EffWidth()
		if tw := top[i].EffWidth(); tw > w {
			w = tw
		}
		nets[i] = &net{idx: i, a: bottom[i].X, b: top[i].X, layer: bottom[i].Layer,
			width: w, bottom: bottom[i], top: top[i]}
	}

	// congestion pre-check: terminal wire stubs that would overlap or
	// crowd under the spacing rule fail before any tracks are assigned.
	// Stubs take the net's resolved width — the wire is widened to the
	// fatter of its two terminals, so a wide far end crowds this edge
	// too.
	if err := checkTerminals(nets, true); err != nil {
		return nil, err
	}
	if err := checkTerminals(nets, false); err != nil {
		return nil, err
	}

	// group by layer, in order of first appearance, and check
	// planarity (order preservation); layers share the track numbering,
	// so their order must not be the map's
	byLayer := map[geom.Layer][]*net{}
	var layers []geom.Layer
	for _, n := range nets {
		if byLayer[n.layer] == nil {
			layers = append(layers, n.layer)
		}
		byLayer[n.layer] = append(byLayer[n.layer], n)
	}
	for _, layer := range layers {
		sorted := append([]*net(nil), byLayer[layer]...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].a < sorted[j].a })
		for i := 1; i < len(sorted); i++ {
			if sorted[i].a == sorted[i-1].a {
				return nil, fmt.Errorf("river: two %v connections share bottom position %d", layer, sorted[i].a)
			}
			if sorted[i].b <= sorted[i-1].b {
				return nil, fmt.Errorf("river: %v connections %q and %q cross (no two routes on the same layer may cross)",
					layer, sorted[i-1].bottom.Name, sorted[i].bottom.Name)
			}
		}
		byLayer[layer] = sorted
	}

	// Track assignment. Within a layer, rightward-moving nets take
	// monotonically non-increasing tracks (left to right) and
	// leftward-moving nets monotonically non-decreasing ones; the two
	// groups' jog intervals are provably disjoint under order
	// preservation, and different layers never interact, but distinct
	// layers share the global track numbering so the channel height is
	// a single number.
	tracks := 0
	pitch := 0
	for _, n := range nets {
		if p := rules.WirePitch(n.layer, n.width, n.width); p > pitch {
			pitch = p
		}
	}
	for _, layer := range layers {
		var rights, lefts []*net
		for _, n := range byLayer[layer] {
			switch {
			case n.b > n.a:
				rights = append(rights, n)
			case n.b < n.a:
				lefts = append(lefts, n)
			}
		}
		// rights: first net highest track; reuse a track while jog
		// intervals stay clear of each other.
		prevEnd := 0
		cur := 0
		for i, n := range rights {
			sp := rules.MinSpacing(n.layer) + n.width
			if i == 0 || n.a-prevEnd < sp {
				tracks++
				cur = tracks
			}
			n.track = cur
			prevEnd = n.b
		}
		// lefts: first net lowest track of its run, later nets higher;
		// allocate a block of tracks and hand them out bottom-up.
		prevEnd = 0
		nblock := 0
		for i, n := range lefts {
			sp := rules.MinSpacing(n.layer) + n.width
			if i == 0 || n.b-prevEnd < sp {
				tracks++
				nblock++
			}
			n.track = -nblock // placeholder: 1-based index into the block
			prevEnd = n.a
		}
		// resolve left tracks: block entry k takes the k-th lowest of
		// the newly allocated tracks, so earlier lefts sit lower.
		for _, n := range lefts {
			bi := -n.track
			n.track = tracks + 1 - bi
		}
	}

	channels := 1
	if tracks > 0 {
		channels = (tracks + cap - 1) / cap
	}

	clear := pitch
	if clear == 0 {
		clear = rules.Pitch(geom.NM)
	}
	height := 2*clear + tracks*pitch
	if tracks == 0 {
		height = 2 * clear
	}
	if opt.ExactHeight > 0 {
		// an all-straight route can squeeze into any positive gap;
		// jogged routes need their full track stack plus clearance. A
		// fixed gap cannot grow by "adding another channel" the way an
		// unconstrained route does, so overflow past the gap's track
		// capacity is a hard failure, reported in tracks: the designer's
		// fix is fewer jogs (or moving the instances), not a taller cell.
		minHeight := height
		if tracks == 0 {
			minHeight = 1
		}
		if opt.ExactHeight < minHeight {
			avail := (opt.ExactHeight - 2*clear) / pitch
			if avail < 0 {
				avail = 0
			}
			return nil, fmt.Errorf("river: route needs %d jog track(s) but the fixed %d-lambda gap fits %d (height %d needed; the instances are too close together)",
				tracks, opt.ExactHeight, avail, minHeight)
		}
		height = opt.ExactHeight
	}
	trackY := func(tr int) int { // track 1 is the highest
		return height - clear - (tr-1)*pitch
	}

	// emit the route cell
	cell := &sticks.Cell{Name: name, HasBox: true}
	minX, maxX := nets[0].a, nets[0].a
	for _, n := range nets {
		for _, x := range []int{n.a, n.b} {
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
		}
	}
	cell.Box = geom.R(minX, 0, maxX, height)

	length := 0
	for _, n := range nets {
		var pts []geom.Point
		if n.a == n.b {
			pts = []geom.Point{{X: n.a, Y: 0}, {X: n.a, Y: height}}
		} else {
			y := trackY(n.track)
			pts = []geom.Point{{X: n.a, Y: 0}, {X: n.a, Y: y}, {X: n.b, Y: y}, {X: n.b, Y: height}}
		}
		for i := 1; i < len(pts); i++ {
			length += pts[i-1].ManhattanDist(pts[i])
		}
		cell.Wires = append(cell.Wires, sticks.Wire{Layer: n.layer, Width: n.width, Points: pts})
		cell.Connectors = append(cell.Connectors,
			sticks.Connector{Name: botName(n.bottom, n.idx), At: geom.Pt(n.a, 0), Layer: n.layer, Width: n.bottom.EffWidth(), Side: geom.SideBottom},
			sticks.Connector{Name: topName(n.top, n.idx), At: geom.Pt(n.b, height), Layer: n.layer, Width: n.top.EffWidth(), Side: geom.SideTop},
		)
	}

	if err := verify(cell); err != nil {
		return nil, fmt.Errorf("river: internal: %w", err)
	}
	if err := cell.Validate(); err != nil {
		return nil, fmt.Errorf("river: internal: %w", err)
	}
	return &Result{Cell: cell, Height: height, Tracks: tracks, Channels: channels, Length: length}, nil
}

func botName(t Terminal, i int) string {
	if t.Name != "" {
		return t.Name + ".b"
	}
	return fmt.Sprintf("N%d.b", i)
}

func topName(t Terminal, i int) string {
	if t.Name != "" {
		return t.Name + ".t"
	}
	return fmt.Sprintf("N%d.t", i)
}

// checkTerminals rejects one edge of the channel when two same-layer
// wire stubs would overlap or run closer than the layer's spacing rule
// — channel congestion the router cannot fix by adding tracks, caught
// before any assignment work and reported against the terminals
// instead of as an internal wire-spacing failure. Each stub takes its
// net's resolved wire width (the wider of the two ends). Candidate
// neighbors come from a geom.Index over the stub extents, the same
// indexed obstacle query the extractor and the design-rule checker
// use.
func checkTerminals(nets []*net, bottomEdge bool) error {
	if len(nets) < 2 {
		return nil
	}
	edge := "top"
	stubs := make([]geom.Rect, len(nets))
	for i, n := range nets {
		x := n.b
		if bottomEdge {
			x = n.a
			edge = "bottom"
		}
		stubs[i] = geom.R(x-n.width/2, 0, x-n.width/2+n.width, 1)
	}
	ix := geom.NewIndexFrom(stubs)
	for i, n := range nets {
		gap := rules.MinSpacing(n.layer)
		var err error
		ix.QueryRect(stubs[i].Inset(-gap), func(j int) bool {
			if j <= i || nets[j].layer != n.layer {
				return true
			}
			sep := 0 // edge-to-edge separation; 0 when the stubs overlap
			switch {
			case stubs[j].Min.X > stubs[i].Max.X:
				sep = stubs[j].Min.X - stubs[i].Max.X
			case stubs[i].Min.X > stubs[j].Max.X:
				sep = stubs[i].Min.X - stubs[j].Max.X
			}
			if sep >= gap {
				return true
			}
			err = fmt.Errorf("river: %s terminals %q and %q are closer than the %v spacing rule (%d lambda)",
				edge, termName(n, bottomEdge), termName(nets[j], bottomEdge), n.layer, gap)
			return false
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func termName(n *net, bottomEdge bool) string {
	t := n.top
	if bottomEdge {
		t = n.bottom
	}
	if t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("N%d", n.idx)
}

// verify checks that no two same-layer wires of different nets violate
// minimum spacing — the router's construction guarantees this, and the
// check enforces the guarantee ("guaranteeing that connections are made
// correctly"). Candidate pairs come from a geom.Index over the wire
// segments instead of the all-pairs scan the first version used.
func verify(cell *sticks.Cell) error {
	type seg struct {
		r     geom.Rect
		layer geom.Layer
		wire  int
	}
	var segs []seg
	rects := make([]geom.Rect, 0, len(cell.Wires))
	for wi, w := range cell.Wires {
		h1 := w.Width / 2
		h2 := w.Width - h1
		for i := 1; i < len(w.Points); i++ {
			a, b := w.Points[i-1], w.Points[i]
			r := geom.RectFromPoints(a, b)
			r = geom.R(r.Min.X-h1, r.Min.Y-h1, r.Max.X+h2, r.Max.Y+h2)
			segs = append(segs, seg{r, w.Layer, wi})
			rects = append(rects, r)
		}
	}
	ix := geom.NewIndexFrom(rects)
	for i, a := range segs {
		gap := rules.MinSpacing(a.layer)
		grown := geom.R(a.r.Min.X-gap, a.r.Min.Y-gap, a.r.Max.X+gap, a.r.Max.Y+gap)
		var err error
		ix.QueryRect(grown, func(j int) bool {
			b := segs[j]
			if j <= i || a.wire == b.wire || a.layer != b.layer {
				return true
			}
			if grown.Overlaps(b.r) {
				err = fmt.Errorf("wires %d and %d closer than %d on %v (%v vs %v)",
					a.wire, b.wire, gap, a.layer, a.r, b.r)
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}
