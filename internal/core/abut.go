package core

import (
	"fmt"

	"riot/internal/geom"
)

// Abut executes the ABUT connection specification command on the
// pending connection list. The from instance is moved so that:
//
//   - with no connector links, its facing edge touches the to instance
//     and their bottom (or left) edges match, "depending on the relative
//     positions of the instances before the ABUT command";
//   - with connector links, the specified connections are matched
//     during the abutment; connections that cannot be made produce
//     warnings, not errors;
//   - with overlap=true, the first linked connector pair is made to
//     coincide exactly, letting the instances overlap "to share a
//     common pair of connectors" (the shared power-rail trick).
//
// The pending list is consumed. Warnings report connections the final
// position does not satisfy. An abutment that fails moves nothing and
// keeps the pending list.
func (e *Editor) Abut(overlap bool) ([]string, error) {
	e.touch()
	from, conns, err := e.pendingFrom()
	if err != nil {
		return nil, err
	}
	t, warns, err := abutShift(from, conns, overlap)
	if err != nil {
		return nil, err
	}
	e.MoveInstance(from, t)
	e.made(conns)
	return warns, nil
}

// abutShift returns the translation that abuts from as conns ask, and
// a warning for each connector link it leaves unmade. It resolves every
// linked connector once, before anything moves: a translated
// connector sits at its old point plus the translation.
func abutShift(from *Instance, conns []Connection, overlap bool) (geom.Point, []string, error) {
	// split connector links from pure abut links
	var linked []connPair
	for _, c := range conns {
		if c.FromConn == "" {
			continue
		}
		fc, err := from.Connector(c.FromConn)
		if err != nil {
			return geom.Point{}, nil, err
		}
		tc, err := c.To.Connector(c.ToConn)
		if err != nil {
			return geom.Point{}, nil, err
		}
		linked = append(linked, connPair{fc, tc})
	}

	var t geom.Point
	switch {
	case len(linked) > 0 && overlap:
		t = linked[0].tc.At.Sub(linked[0].fc.At)

	case len(linked) > 0:
		fc, tc := linked[0].fc, linked[0].tc
		// primary axis: the from connector's edge touches the to
		// instance's opposing edge; perpendicular axis: the first
		// connector pair aligns.
		var err error
		t, err = edgeTouch(from, tc.Inst, fc.Side)
		if err != nil {
			return geom.Point{}, nil, err
		}
		if fc.Side.Horizontal() {
			t.Y = tc.At.Y - fc.At.Y
		} else {
			t.X = tc.At.X - fc.At.X
		}

	default:
		// pure abutment: edges touch, bottom or left edges match
		to := conns[0].To
		side := facingSide(from.BBox(), to.BBox())
		if side == geom.SideNone {
			return geom.Point{}, nil, fmt.Errorf("core: %q and %q coincide; move one before abutting", from.Name, to.Name)
		}
		var err error
		t, err = edgeTouch(from, to, side)
		if err != nil {
			return geom.Point{}, nil, err
		}
		fb, tb := from.BBox(), to.BBox()
		if side.Horizontal() {
			t.Y = tb.Min.Y - fb.Min.Y // bottom edges match
		} else {
			t.X = tb.Min.X - fb.Min.X // left edges match
		}
	}

	// verify every requested connection; "if the connections cannot be
	// made by the abutment, a warning message is produced."
	var warnings []string
	for _, p := range linked {
		if at := p.fc.At.Add(t); at != p.tc.At {
			warnings = append(warnings, fmt.Sprintf(
				"connection %s.%s -> %s.%s not made by the abutment (off by %v)",
				from.Name, p.fc.Name, p.tc.Inst.Name, p.tc.Name, p.tc.At.Sub(at)))
		}
	}
	return t, warnings, nil
}

// edgeTouch computes the translation that brings the given edge of
// from into contact with the opposing edge of to, moving only along
// the edge's normal axis.
func edgeTouch(from, to *Instance, side geom.Side) (geom.Point, error) {
	fb, tb := from.BBox(), to.BBox()
	switch side {
	case geom.SideRight:
		return geom.Pt(tb.Min.X-fb.Max.X, 0), nil
	case geom.SideLeft:
		return geom.Pt(tb.Max.X-fb.Min.X, 0), nil
	case geom.SideTop:
		return geom.Pt(0, tb.Min.Y-fb.Max.Y), nil
	case geom.SideBottom:
		return geom.Pt(0, tb.Max.Y-fb.Min.Y), nil
	}
	return geom.Point{}, fmt.Errorf("core: cannot abut along side %v", side)
}
