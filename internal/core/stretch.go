package core

import (
	"fmt"

	"riot/internal/compact"
	"riot/internal/geom"
	"riot/internal/sticks"
)

// StretchResult reports what the STRETCH command did.
type StretchResult struct {
	NewCell  *Cell      // the re-solved cell that replaced the old one
	Moved    geom.Point // translation applied by the final abutment
	Warnings []string
}

// StretchConnect executes the STRETCH connection specification
// command: "the locations of the connectors on the to instance are
// used to determine the needed separations of the connectors on the
// from instance to make the connection by abutment. If the from
// instance is defined in Sticks form, the new constraints on the
// connector positions are put into the Stick file, making a new cell.
// The new cell is passed through the Stick optimizer ... which moves
// the connectors to the constrained locations. Riot then removes the
// old instance and inserts an instance of the new cell into the cell
// under edit."
//
// The from instance's defining cell must be symbolic: cells from CIF
// libraries "cannot be stretched by Riot and all connections to them
// will have to be made by routing". After the stretch the instances
// are abutted, completing the connection without routing. The pending
// connection list is consumed. A stretch that fails changes nothing
// but the edit generation.
func (e *Editor) StretchConnect() (res *StretchResult, err error) {
	e.touch()
	defer e.Design.keepNames(e.Design.next, &err)
	from, conns, err := e.pendingFrom()
	if err != nil {
		return nil, err
	}
	if from.Cell.Kind != LeafSticks {
		return nil, fmt.Errorf("core: instance %q is not defined in Sticks form and cannot be stretched; connect it by routing",
			from.Name)
	}
	if from.IsArray() {
		return nil, fmt.Errorf("core: array instance %q cannot be stretched", from.Name)
	}
	for _, c := range conns {
		if c.FromConn == "" {
			return nil, fmt.Errorf("core: STRETCH needs connector links, but the pending list has a pure abut link")
		}
	}

	// all from connectors must leave one side
	var side geom.Side
	pairs := make([]connPair, len(conns))
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
			side = fc.Side
		} else if fc.Side != side {
			return nil, fmt.Errorf("core: STRETCH connections leave %q on mixed sides (%v and %v)", from.Name, side, fc.Side)
		}
		pairs[i] = connPair{fc, tc}
	}

	// the stretch axis in the cell's local frame: connectors on a
	// horizontal edge (top/bottom) spread along local X, and vice
	// versa, after undoing the instance orientation
	localSide := side.Transform(from.Tr.O.Inverse())
	axis := sticks.AxisX
	if localSide.Horizontal() {
		axis = sticks.AxisY
	}
	localCoord := func(p geom.Point) int {
		if axis == sticks.AxisX {
			return p.X
		}
		return p.Y
	}

	// required local positions: pull the to-connector targets back
	// through the instance transform
	inv := from.Tr.Inverse()
	units := from.Cell.Sticks.EffUnits()
	type pinReq struct {
		name   string
		target int // lambda
		orig   int // lambda, current position
	}
	reqs := make([]pinReq, len(pairs))
	seen := map[string]bool{}
	for i, p := range pairs {
		baseName := baseConnName(p.fc.Name)
		if seen[baseName] {
			return nil, fmt.Errorf("core: connector %q appears in two pending connections", baseName)
		}
		seen[baseName] = true
		local := inv.Apply(p.tc.At)
		lc := localCoord(local)
		if lc%units != 0 {
			return nil, fmt.Errorf("core: stretch target for %s.%s is off the lambda grid (%d centimicrons)", from.Name, p.fc.Name, lc)
		}
		scn, ok := from.Cell.Sticks.ConnectorByName(baseName)
		if !ok {
			return nil, fmt.Errorf("core: sticks cell %q has no connector %q", from.Cell.Name, baseName)
		}
		reqs[i] = pinReq{name: baseName, target: lc / units, orig: localCoord(scn.At)}
	}

	// Normalize pin positions for feasibility: the optimizer's output
	// space starts at zero, so shift all targets together until the
	// smallest pinned connector can reach its pin. The absolute offset
	// is immaterial — the abutment that follows cancels it; only the
	// separations matter.
	minimal, err := compact.Compact(from.Cell.Sticks, axis)
	if err != nil {
		return nil, err
	}
	shift := 0
	for _, r := range reqs {
		mc, _ := minimal.ConnectorByName(r.name)
		if need := localCoord(mc.At) - r.target; need > shift {
			shift = need
		}
	}
	pins := make([]compact.Pin, len(reqs))
	for i, r := range reqs {
		pins[i] = compact.Pin{Connector: r.name, Coord: r.target + shift}
	}

	// re-solve through the optimizer, producing a new named cell
	src := from.Cell.Sticks.Clone()
	src.Name = e.Design.GenName(from.Cell.Name + "S")
	stretched, err := compact.Stretch(src, axis, pins)
	if err != nil {
		return nil, err
	}
	newCell, err := NewLeafFromSticks(stretched)
	if err != nil {
		return nil, err
	}

	// replace the instance's defining cell, keeping its placement, and
	// finish with an abutment so "the instances [are] abutted without
	// routing"
	next := *from
	next.Cell = newCell
	t, warnings, err := abutShift(&next, conns, false)
	if err != nil {
		return nil, err
	}
	if err := e.Design.AddCell(newCell); err != nil {
		return nil, err
	}
	from.Cell = newCell
	e.MoveInstance(from, t)
	e.made(conns)
	return &StretchResult{NewCell: newCell, Moved: t, Warnings: warnings}, nil
}

// baseConnName strips an array suffix from a connector name; stretch
// targets always refer to the defining cell's connector.
func baseConnName(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '[' {
			return name[:i]
		}
	}
	return name
}
