// Package sticks implements the Sticks symbolic-layout interchange
// format (the "Sticks Standard", Trimberger 1980). A Sticks cell
// describes a leaf cell topologically: wires with a layer and width,
// transistors, inter-layer contacts, and named connectors on the cell
// boundary, all on a lambda grid. Sticks cells are what REST produces,
// what Riot stretches, and what the river router emits for its route
// cells.
//
// The original Sticks Standard technical report is long out of print;
// this package defines a documented line-oriented text rendering of the
// same content (see DESIGN.md, Substitutions). The grammar is:
//
//	STICKS <name>
//	UNITS <centimicrons-per-unit>          (optional, default 250)
//	BBOX <x0> <y0> <x1> <y1>               (optional, else computed)
//	WIRE <layer> <width> <x1> <y1> <x2> <y2> ...
//	DEVICE <ENH|DEP> <x> <y> <H|V> <w> <l>
//	CONTACT <layerA> <layerB> <x> <y>
//	CONNECTOR <name> <x> <y> <layer> <width> <side>
//	CONSTRAINT <X|Y> <nameA> <nameB> <min>
//	END
//
// Comments run from '#' to end of line. All coordinates are in cell
// units (lambda by default).
package sticks

import (
	"fmt"

	"riot/internal/geom"
	"riot/internal/rules"
)

// Wire is a symbolic wire: an orthogonal path on one layer. Width zero
// means "minimum width for the layer".
type Wire struct {
	Layer  geom.Layer
	Width  int
	Points []geom.Point
}

// DeviceKind distinguishes enhancement- and depletion-mode nMOS
// transistors.
type DeviceKind uint8

// The two nMOS device kinds.
const (
	Enhancement DeviceKind = iota
	Depletion
)

// String returns the keyword used in the text format.
func (k DeviceKind) String() string {
	if k == Depletion {
		return "DEP"
	}
	return "ENH"
}

// Device is a transistor: a poly gate crossing a diffusion channel at
// At. Vertical devices run their diffusion vertically (gate poly
// horizontal); horizontal devices the reverse. W and L are channel
// width and length in cell units.
type Device struct {
	Kind     DeviceKind
	At       geom.Point
	Vertical bool
	W, L     int
}

// Contact connects two layers at a point with the standard contact
// structure.
type Contact struct {
	From, To geom.Layer
	At       geom.Point
}

// Connector is a named connection point, normally on the cell
// boundary. Width zero means minimum width for the layer. Side records
// which bounding-box edge the connector lies on; SideNone marks an
// interior connector.
type Connector struct {
	Name  string
	At    geom.Point
	Layer geom.Layer
	Width int
	Side  geom.Side
}

// EffWidth returns the connector's wire width, substituting the layer
// minimum when the width is unspecified.
func (c Connector) EffWidth() int {
	if c.Width > 0 {
		return c.Width
	}
	return rules.MinWidth(c.Layer)
}

// Axis selects the coordinate a constraint applies to.
type Axis uint8

// The two constraint axes.
const (
	AxisX Axis = iota
	AxisY
)

// String returns "X" or "Y".
func (a Axis) String() string {
	if a == AxisY {
		return "Y"
	}
	return "X"
}

// Constraint is a user (or Riot-generated) separation constraint
// between two named connectors: coordinate(B) - coordinate(A) >= Min on
// the given axis. Riot's STRETCH operation works by adding constraints
// of this form and re-solving the cell.
type Constraint struct {
	Axis Axis
	A, B string
	Min  int
}

// Cell is a complete Sticks cell.
type Cell struct {
	Name        string
	Units       int // centimicrons per cell unit; 0 means rules.Lambda
	Wires       []Wire
	Devices     []Device
	Contacts    []Contact
	Connectors  []Connector
	Constraints []Constraint
	Box         geom.Rect // declared bounding box
	HasBox      bool
}

// EffUnits returns the cell's unit size in centimicrons.
func (c *Cell) EffUnits() int {
	if c.Units > 0 {
		return c.Units
	}
	return rules.Lambda
}

// ConnectorByName returns the named connector and whether it exists.
func (c *Cell) ConnectorByName(name string) (Connector, bool) {
	for _, cn := range c.Connectors {
		if cn.Name == name {
			return cn, true
		}
	}
	return Connector{}, false
}

// BBox returns the declared bounding box if present, otherwise the
// union of all content extents (wire widths included).
func (c *Cell) BBox() geom.Rect {
	if c.HasBox {
		return c.Box
	}
	var r geom.Rect
	first := true
	add := func(s geom.Rect) {
		if first {
			r = s
			first = false
		} else {
			r = r.Union(s)
		}
	}
	for _, w := range c.Wires {
		width := w.Width
		if width <= 0 {
			width = rules.MinWidth(w.Layer)
		}
		h := width / 2
		for _, p := range w.Points {
			add(geom.R(p.X-h, p.Y-h, p.X+width-h, p.Y+width-h))
		}
	}
	for _, d := range c.Devices {
		half := (max(d.W, d.L) + 2) / 2
		add(geom.R(d.At.X-half, d.At.Y-half, d.At.X+half, d.At.Y+half))
	}
	for _, ct := range c.Contacts {
		h := rules.ContactSize / 2
		add(geom.R(ct.At.X-h, ct.At.Y-h, ct.At.X+h, ct.At.Y+h))
	}
	for _, cn := range c.Connectors {
		add(geom.Rect{Min: cn.At, Max: cn.At})
	}
	return r
}

// Clone returns a deep copy of the cell.
func (c *Cell) Clone() *Cell {
	d := *c
	d.Wires = make([]Wire, len(c.Wires))
	for i, w := range c.Wires {
		w.Points = append([]geom.Point(nil), w.Points...)
		d.Wires[i] = w
	}
	d.Devices = append([]Device(nil), c.Devices...)
	d.Contacts = append([]Contact(nil), c.Contacts...)
	d.Connectors = append([]Connector(nil), c.Connectors...)
	d.Constraints = append([]Constraint(nil), c.Constraints...)
	return &d
}

// Validate checks structural invariants: a non-empty name, unique
// connector names, routable connector layers, connectors with a
// declared side actually lying on that edge of the bounding box, and
// constraints that reference existing connectors.
func (c *Cell) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("sticks: cell has no name")
	}
	names := map[string]bool{}
	bb := c.BBox()
	for _, cn := range c.Connectors {
		if cn.Name == "" {
			return fmt.Errorf("sticks: %s: connector with empty name", c.Name)
		}
		if names[cn.Name] {
			return fmt.Errorf("sticks: %s: duplicate connector %q", c.Name, cn.Name)
		}
		names[cn.Name] = true
		if !cn.Layer.Routable() {
			return fmt.Errorf("sticks: %s: connector %q on non-routable layer %v", c.Name, cn.Name, cn.Layer)
		}
		if cn.Side != geom.SideNone {
			onEdge := false
			switch cn.Side {
			case geom.SideLeft:
				onEdge = cn.At.X == bb.Min.X
			case geom.SideRight:
				onEdge = cn.At.X == bb.Max.X
			case geom.SideBottom:
				onEdge = cn.At.Y == bb.Min.Y
			case geom.SideTop:
				onEdge = cn.At.Y == bb.Max.Y
			}
			if !onEdge {
				return fmt.Errorf("sticks: %s: connector %q declared on %v edge but at %v (bbox %v)",
					c.Name, cn.Name, cn.Side, cn.At, bb)
			}
		}
	}
	for _, k := range c.Constraints {
		if !names[k.A] {
			return fmt.Errorf("sticks: %s: constraint references unknown connector %q", c.Name, k.A)
		}
		if !names[k.B] {
			return fmt.Errorf("sticks: %s: constraint references unknown connector %q", c.Name, k.B)
		}
	}
	for _, w := range c.Wires {
		if len(w.Points) < 2 {
			return fmt.Errorf("sticks: %s: wire with fewer than 2 points", c.Name)
		}
		for i := 1; i < len(w.Points); i++ {
			a, b := w.Points[i-1], w.Points[i]
			if a.X != b.X && a.Y != b.Y {
				return fmt.Errorf("sticks: %s: non-Manhattan wire segment %v-%v", c.Name, a, b)
			}
		}
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
