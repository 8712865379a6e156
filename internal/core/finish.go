package core

import (
	"fmt"
	"sort"

	"riot/internal/geom"
	"riot/internal/river"
	"riot/internal/rules"
)

// BringOut finishes a cell by exporting interior connectors: "the
// route command can be used to 'bring out' connectors from the inside
// of the cell to the edge of the composition cell. When an attempt is
// made to route the connectors on an instance past the bounding box of
// the cell, a simple straight-line route cell is made for those
// connectors to the edge of the cell, and an instance of that cell is
// placed to make the connection."
//
// The named connectors of the instance must sit on the instance edge
// facing the requested cell side. The generated straight-line route
// cell reaches exactly to the current bounding-box edge, so the
// brought-out connectors appear as connectors of the composition cell.
// A bring-out that fails changes nothing but the edit generation.
func (e *Editor) BringOut(in *Instance, connNames []string, side geom.Side) (ri *Instance, err error) {
	e.touch()
	defer e.Design.keepNames(e.Design.next, &err)
	if len(connNames) == 0 {
		return nil, fmt.Errorf("core: BringOut needs at least one connector")
	}
	if side == geom.SideNone {
		return nil, fmt.Errorf("core: BringOut needs a cell side")
	}
	cellBox := e.Cell.BBox()
	var ics []InstConn
	for _, name := range connNames {
		ic, err := in.Connector(name)
		if err != nil {
			return nil, err
		}
		if ic.Side != side {
			return nil, fmt.Errorf("core: connector %s.%s is on side %v, not %v", in.Name, name, ic.Side, side)
		}
		ics = append(ics, ic)
	}

	// distance from the instance edge to the cell edge
	ib := in.BBox()
	var gap int
	switch side {
	case geom.SideTop:
		gap = cellBox.Max.Y - ib.Max.Y
	case geom.SideBottom:
		gap = ib.Min.Y - cellBox.Min.Y
	case geom.SideRight:
		gap = cellBox.Max.X - ib.Max.X
	case geom.SideLeft:
		gap = ib.Min.X - cellBox.Min.X
	}
	if gap < 0 {
		return nil, fmt.Errorf("core: %s pokes %d past the cell's %v edge; no room for a bring-out route", in.Name, -gap, side)
	}
	if gap == 0 {
		return nil, nil // already on the edge; nothing to do
	}
	gapL, err := toLambda(gap)
	if err != nil {
		return nil, fmt.Errorf("core: cell edge: %w", err)
	}

	// straight route: same u at both ends
	uOf := func(p geom.Point) int {
		if side.Vertical() {
			return p.X
		}
		return p.Y
	}
	sort.Slice(ics, func(i, j int) bool { return uOf(ics[i].At) < uOf(ics[j].At) })
	base := uOf(ics[0].At)
	terms := make([]river.Terminal, len(ics))
	for i, ic := range ics {
		u, err := toLambda(uOf(ic.At) - base)
		if err != nil {
			return nil, fmt.Errorf("core: connector %s.%s: %w", in.Name, ic.Name, err)
		}
		terms[i] = river.Terminal{Name: fmt.Sprintf("C%d", i), X: u, Layer: ic.Layer, Width: ic.Width / rules.Lambda}
	}
	res, err := river.Route(terms, terms, river.Options{
		CellName:    e.Design.GenName("EDGE"),
		ExactHeight: gapL,
	})
	if err != nil {
		return nil, err
	}
	routeCell, err := NewLeafFromSticks(res.Cell)
	if err != nil {
		return nil, err
	}

	// place the route with its floor on the instance edge, growing
	// toward the cell edge — the floor side here is the instance's own
	// side, so the channel transform uses it directly
	var edgeCoord int
	switch side {
	case geom.SideTop:
		edgeCoord = ib.Max.Y
	case geom.SideBottom:
		edgeCoord = ib.Min.Y
	case geom.SideRight:
		edgeCoord = ib.Max.X
	default:
		edgeCoord = ib.Min.X
	}
	tr := channelTransform(side, base, edgeCoord)
	routeInst := &Instance{Name: routeCell.Name, Cell: routeCell, Tr: tr, Nx: 1, Ny: 1}

	// sanity: the route floor must meet the instance connectors
	for i, ic := range ics {
		bc, err := routeInst.Connector(fmt.Sprintf("C%d.b", i))
		if err != nil {
			return nil, err
		}
		if bc.At != ic.At {
			return nil, fmt.Errorf("core: internal: bring-out floor %d at %v does not meet %s.%s at %v",
				i, bc.At, in.Name, ic.Name, ic.At)
		}
	}
	if err := e.Design.AddCell(routeCell); err != nil {
		return nil, err
	}
	e.Cell.Instances = append(e.Cell.Instances, routeInst)
	e.nameAdded(routeInst)
	return routeInst, nil
}
