package core

import (
	"fmt"
	"sort"

	"riot/internal/geom"
	"riot/internal/river"
	"riot/internal/rules"
)

// RouteOptions tunes the ROUTE connection specification command.
type RouteOptions struct {
	// NoMove routes "without moving the from instance... used to make
	// connections between two instances which are already positioned
	// and should not move". The route must fit the existing gap.
	NoMove bool
	// CellName names the generated route cell; empty generates one.
	CellName string
}

// RouteResult reports what the ROUTE command built.
type RouteResult struct {
	RouteInst *Instance     // the placed route-cell instance
	River     *river.Result // the raw routing result
	Moved     geom.Point    // translation applied to the from instance
	Warnings  []string
}

// RouteConnect executes the ROUTE connection specification command:
// "the connectors on the from and to instances are used to specify
// starting and ending locations of the route... Riot then makes a new
// Sticks cell containing the river route wires and places an instance
// of that route cell next to the to instance. The from instance is
// moved to abut the other side of the river route instance, thereby
// using the least amount of space possible for the route."
//
// The pending connection list is consumed. A route that fails changes
// nothing but the edit generation.
func (e *Editor) RouteConnect(opt RouteOptions) (out *RouteResult, err error) {
	e.touch()
	defer e.Design.keepNames(e.Design.next, &err)
	from, conns, err := e.pendingFrom()
	if err != nil {
		return nil, err
	}
	for _, c := range conns {
		if c.FromConn == "" {
			return nil, fmt.Errorf("core: ROUTE needs connector links, but the pending list has a pure abut link")
		}
	}

	// resolve both ends of every link and establish the channel side
	pairs := make([]connPair, len(conns))
	var toSide geom.Side
	for i, c := range conns {
		fc, err := from.Connector(c.FromConn)
		if err != nil {
			return nil, err
		}
		tc, err := c.To.Connector(c.ToConn)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			toSide = tc.Side
		} else if tc.Side != toSide {
			return nil, fmt.Errorf("core: ROUTE connections leave the to instances on mixed sides (%v and %v)", toSide, tc.Side)
		}
		if fc.Side != toSide.Opposite() {
			return nil, fmt.Errorf("core: %s.%s is on side %v; it must oppose the to connectors on %v",
				from.Name, c.FromConn, fc.Side, toSide)
		}
		pairs[i] = connPair{fc, tc}
	}

	// channel geometry: u runs along the to edge, the channel grows
	// along the edge's outward normal
	horizEdge := toSide.Vertical() // top/bottom edge: u is X
	uOf := func(p geom.Point) int {
		if horizEdge {
			return p.X
		}
		return p.Y
	}
	// the channel floor sits on the to edge; every to instance
	// involved must present that edge at the same coordinate
	edgeCoord, err := channelFloor(pairs, toSide)
	if err != nil {
		return nil, err
	}

	// sort pairs along the edge by to-connector position
	sort.Slice(pairs, func(i, j int) bool { return uOf(pairs[i].tc.At) < uOf(pairs[j].tc.At) })

	// build terminal vectors in lambda, relative to a base coordinate
	base := uOf(pairs[0].tc.At)
	for _, p := range pairs {
		if u := uOf(p.tc.At); u < base {
			base = u
		}
		if u := uOf(p.fc.At); u < base {
			base = u
		}
	}
	bottom := make([]river.Terminal, len(pairs))
	top := make([]river.Terminal, len(pairs))
	for i, p := range pairs {
		bu, err := toLambda(uOf(p.tc.At) - base)
		if err != nil {
			return nil, fmt.Errorf("core: to connector %s.%s: %w", p.tc.Inst.Name, p.tc.Name, err)
		}
		tu, err := toLambda(uOf(p.fc.At) - base)
		if err != nil {
			return nil, fmt.Errorf("core: from connector %s.%s: %w", from.Name, p.fc.Name, err)
		}
		bottom[i] = river.Terminal{Name: fmt.Sprintf("C%d", i), X: bu, Layer: p.tc.Layer, Width: p.tc.Width / rules.Lambda}
		top[i] = river.Terminal{Name: fmt.Sprintf("C%d", i), X: tu, Layer: p.fc.Layer, Width: p.fc.Width / rules.Lambda}
	}

	ropt := river.Options{TracksPerChannel: e.TracksPerChannel}
	ropt.CellName = opt.CellName
	if ropt.CellName == "" {
		ropt.CellName = e.Design.GenName("ROUTE")
	}
	if opt.NoMove {
		gap, err := fixedGap(from, toSide, edgeCoord)
		if err != nil {
			return nil, err
		}
		ropt.ExactHeight, err = toLambda(gap)
		if err != nil {
			return nil, fmt.Errorf("core: gap between instances: %w", err)
		}
	}
	res, err := river.Route(bottom, top, ropt)
	if err != nil {
		return nil, err
	}

	// the route cell: "the routing cells made in Riot are treated just
	// like other cells"
	routeCell, err := NewLeafFromSticks(res.Cell)
	if err != nil {
		return nil, err
	}
	tr := channelTransform(toSide, base, edgeCoord)
	routeInst := &Instance{Name: routeCell.Name, Cell: routeCell, Tr: tr, Nx: 1, Ny: 1}

	out = &RouteResult{RouteInst: routeInst, River: res}
	if !opt.NoMove {
		// move the from instance to abut the far side of the route:
		// its first connector (pairs[0] is terminal C0 after sorting)
		// lands on the route's matching top connector
		rc, err := routeInst.Connector("C0.t")
		if err != nil {
			return nil, err
		}
		out.Moved = rc.At.Sub(pairs[0].fc.At)
	}

	// verify: every pair must coincide with the route cell's connectors
	// on both sides once the from instance has moved
	for i, p := range pairs {
		bc, err := routeInst.Connector(fmt.Sprintf("C%d.b", i))
		if err != nil {
			return nil, err
		}
		if bc.At != p.tc.At {
			out.Warnings = append(out.Warnings, fmt.Sprintf(
				"route floor connector C%d does not meet %s.%s (off by %v)",
				i, p.tc.Inst.Name, p.tc.Name, p.tc.At.Sub(bc.At)))
		}
		tcTop, err := routeInst.Connector(fmt.Sprintf("C%d.t", i))
		if err != nil {
			return nil, err
		}
		if fc := p.fc.At.Add(out.Moved); tcTop.At != fc {
			out.Warnings = append(out.Warnings, fmt.Sprintf(
				"route ceiling connector C%d does not meet %s.%s (off by %v)",
				i, from.Name, p.fc.Name, fc.Sub(tcTop.At)))
		}
	}

	if err := e.Design.AddCell(routeCell); err != nil {
		return nil, err
	}
	e.Cell.Instances = append(e.Cell.Instances, routeInst)
	e.nameAdded(routeInst)
	if !opt.NoMove {
		e.MoveInstance(from, out.Moved)
	}
	e.made(conns)
	return out, nil
}

// connPair is one resolved pending connection: the from- and
// to-instance connectors being joined.
type connPair struct {
	fc, tc InstConn
}

// channelFloor returns the coordinate of the to edge the channel sits
// on, checking that every to instance presents that edge at the same
// place.
func channelFloor(pairs []connPair, toSide geom.Side) (int, error) {
	coord := func(in *Instance) int {
		b := in.BBox()
		switch toSide {
		case geom.SideTop:
			return b.Max.Y
		case geom.SideBottom:
			return b.Min.Y
		case geom.SideRight:
			return b.Max.X
		default:
			return b.Min.X
		}
	}
	c0 := coord(pairs[0].tc.Inst)
	for _, p := range pairs[1:] {
		if c := coord(p.tc.Inst); c != c0 {
			return 0, fmt.Errorf("core: to instances %q and %q present their %v edges at different positions (%d vs %d); route them separately",
				pairs[0].tc.Inst.Name, p.tc.Inst.Name, toSide, c0, c)
		}
	}
	return c0, nil
}

// fixedGap measures the space available for a no-move route between
// the to edge (at edgeCoord) and the near edge of the from instance.
func fixedGap(from *Instance, toSide geom.Side, edgeCoord int) (int, error) {
	fb := from.BBox()
	var gap int
	switch toSide {
	case geom.SideTop:
		gap = fb.Min.Y - edgeCoord
	case geom.SideBottom:
		gap = edgeCoord - fb.Max.Y
	case geom.SideRight:
		gap = fb.Min.X - edgeCoord
	default:
		gap = edgeCoord - fb.Max.X
	}
	if gap <= 0 {
		return 0, fmt.Errorf("core: no room to route without moving: the instances overlap along the channel")
	}
	return gap, nil
}

// channelTransform places the route cell so that its bottom edge
// (local y=0, u along x) lies on the to edge with local +y pointing
// away from the to instance.
func channelTransform(toSide geom.Side, base, edgeCoord int) geom.Transform {
	switch toSide {
	case geom.SideTop: // channel above: +y outward
		return geom.MakeTransform(geom.R0, geom.Pt(base, edgeCoord))
	case geom.SideBottom: // channel below: mirror y
		return geom.MakeTransform(geom.MXR180, geom.Pt(base, edgeCoord))
	case geom.SideRight: // channel to the right: u along +y, outward +x
		return geom.MakeTransform(geom.MXR270, geom.Pt(edgeCoord, base))
	default: // SideLeft: outward -x
		return geom.MakeTransform(geom.R90, geom.Pt(edgeCoord, base))
	}
}

// toLambda converts centimicrons to lambda, failing on misaligned
// coordinates: Riot's connection operations require everything on the
// lambda grid.
func toLambda(cm int) (int, error) {
	if cm%rules.Lambda != 0 {
		return 0, fmt.Errorf("coordinate %d centimicrons is not on the %d-centimicron lambda grid", cm, rules.Lambda)
	}
	return cm / rules.Lambda, nil
}
