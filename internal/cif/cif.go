// Package cif reads and writes the Caltech Intermediate Form (CIF 2.0),
// the geometrical interchange format described by Sproull & Lyon in
// Mead & Conway, "Introduction to VLSI Systems" (1980). CIF is how Riot
// receives leaf cells from Bristle Blocks, LAP, the PLA generators and
// the cell libraries, and how finished chips are handed to mask
// generation.
//
// The package implements the full command set — polygons (P), boxes (B),
// round flashes (R), wires (W), layer selection (L), symbol definition
// (DS/DF), symbol deletion (DD), calls with transformations (C), user
// extensions (digit commands) and nested comments — plus the user
// extension Riot added "to indicate connector locations so that Riot's
// logical connection operations could be performed on CIF cells":
//
//	94 name x y layer width;
//
// names a connector point inside the enclosing symbol. The conventional
// extension "9 name;" names the enclosing symbol itself.
//
// Distances in CIF are integers in centimicrons (0.01 um); symbol
// coordinates are multiplied by a/b from the DS command when the symbol
// is instantiated. This package resolves a/b scaling when converting a
// symbol's contents, so clients always see centimicrons.
package cif

import (
	"fmt"

	"riot/internal/geom"
)

// Element is one geometric or annotation item inside a symbol (or at
// the top level of a file).
type Element interface {
	// BBox returns the element's bounding box in local coordinates.
	// Calls are resolved against the file the element came from; an
	// element with no spatial extent returns the zero Rect.
	isElement()
}

// Box is the CIF B command: a rectangle given by length (x extent),
// width (y extent), center, and an optional direction for rotated
// boxes. Riot only deals in Manhattan geometry, so Direction is
// restricted to the four axis directions.
type Box struct {
	Layer     geom.Layer
	Length    int        // extent along Direction
	Width     int        // extent perpendicular to Direction
	Center    geom.Point // center of the box
	Direction geom.Point // (1,0) if omitted in the file
}

func (Box) isElement() {}

// Rect returns the box as an axis-aligned rectangle. Boxes whose
// direction is vertical have length and width exchanged.
func (b Box) Rect() geom.Rect {
	l, w := b.Length, b.Width
	if b.Direction.X == 0 && b.Direction.Y != 0 {
		l, w = w, l
	}
	return geom.R(b.Center.X-l/2, b.Center.Y-w/2, b.Center.X+l-l/2, b.Center.Y+w-w/2)
}

// Polygon is the CIF P command: a filled polygon given by its vertex
// path.
type Polygon struct {
	Layer  geom.Layer
	Points []geom.Point
}

func (Polygon) isElement() {}

// Wire is the CIF W command: a path of the given width with
// semicircular (conceptually) end caps. Riot treats wires as the
// fundamental connection geometry.
type Wire struct {
	Layer  geom.Layer
	Width  int
	Points []geom.Point
}

func (Wire) isElement() {}

// RoundFlash is the CIF R command: a circle of the given diameter.
type RoundFlash struct {
	Layer    geom.Layer
	Diameter int
	Center   geom.Point
}

func (RoundFlash) isElement() {}

// Call is the CIF C command: an instance of a symbol under a
// transformation. The CIF transformation list (T/M X/M Y/R) is resolved
// into a single geom.Transform at parse time; only Manhattan rotations
// are accepted.
type Call struct {
	SymbolID  int
	Transform geom.Transform
}

func (Call) isElement() {}

// UserExt is any digit-command the parser does not interpret itself
// (everything except extensions 9 and 94). The text excludes the
// leading digit and the trailing semicolon.
type UserExt struct {
	Digit int
	Text  string
}

func (UserExt) isElement() {}

// Connector is Riot's CIF user extension 94: a named connection point
// with a layer and the width of the wire that makes the connection
// inside the cell.
type Connector struct {
	Name  string
	At    geom.Point
	Layer geom.Layer
	Width int
}

func (Connector) isElement() {}

// Symbol is a CIF symbol definition (DS ... DF). A and B are the
// numerator and denominator applied to all distances inside the symbol.
type Symbol struct {
	ID       int
	A, B     int    // distance scale factors (default 1/1)
	Name     string // from the "9 name;" extension, may be empty
	Elements []Element
}

// Connectors returns the symbol's connector extensions in file order.
func (s *Symbol) Connectors() []Connector {
	var cs []Connector
	for _, e := range s.Elements {
		if c, ok := e.(Connector); ok {
			cs = append(cs, c)
		}
	}
	return cs
}

// File is a parsed CIF file: a set of symbol definitions plus any
// top-level (unsymboled) elements appearing before the End command.
type File struct {
	Symbols  []*Symbol
	TopLevel []Element
}

// SymbolByID returns the symbol with the given definition number, or
// nil if the file does not define it.
func (f *File) SymbolByID(id int) *Symbol {
	for _, s := range f.Symbols {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// SymbolByName returns the symbol carrying the "9 name;" extension with
// the given name, or nil.
func (f *File) SymbolByName(name string) *Symbol {
	for _, s := range f.Symbols {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// scaleElement returns e with all distances multiplied by a/b, the DS
// scale resolution. Scaling happens element-by-element so the rest of
// the system never sees unresolved scale factors.
func scaleElement(e Element, a, b int) Element {
	if a == b {
		return e
	}
	sp := func(p geom.Point) geom.Point {
		return geom.Pt(p.X*a/b, p.Y*a/b)
	}
	si := func(v int) int { return v * a / b }
	switch v := e.(type) {
	case Box:
		v.Length, v.Width, v.Center = si(v.Length), si(v.Width), sp(v.Center)
		return v
	case Polygon:
		pts := make([]geom.Point, len(v.Points))
		for i, p := range v.Points {
			pts[i] = sp(p)
		}
		v.Points = pts
		return v
	case Wire:
		pts := make([]geom.Point, len(v.Points))
		for i, p := range v.Points {
			pts[i] = sp(p)
		}
		v.Width, v.Points = si(v.Width), pts
		return v
	case RoundFlash:
		v.Diameter, v.Center = si(v.Diameter), sp(v.Center)
		return v
	case Call:
		v.Transform.D = sp(v.Transform.D)
		return v
	case Connector:
		v.At, v.Width = sp(v.At), si(v.Width)
		return v
	default:
		return e
	}
}

// ResolveScale returns the symbol's elements with the a/b distance
// scale applied, so all coordinates are in centimicrons.
func (s *Symbol) ResolveScale() []Element {
	if s.A == s.B || s.A == 0 || s.B == 0 {
		return s.Elements
	}
	out := make([]Element, len(s.Elements))
	for i, e := range s.Elements {
		out[i] = scaleElement(e, s.A, s.B)
	}
	return out
}

// elementBBox computes a single element's bounding box; calls recurse
// through the file. seen guards against call cycles.
func elementBBox(f *File, e Element, seen map[int]bool) (geom.Rect, error) {
	switch v := e.(type) {
	case Box:
		return v.Rect(), nil
	case Polygon:
		var r geom.Rect
		for i, p := range v.Points {
			if i == 0 {
				r = geom.Rect{Min: p, Max: p}
			} else {
				r = r.UnionPoint(p)
			}
		}
		return r, nil
	case Wire:
		var r geom.Rect
		h := v.Width / 2
		for i, p := range v.Points {
			pr := geom.R(p.X-h, p.Y-h, p.X+v.Width-h, p.Y+v.Width-h)
			if i == 0 {
				r = pr
			} else {
				r = r.Union(pr)
			}
		}
		return r, nil
	case RoundFlash:
		h := v.Diameter / 2
		return geom.R(v.Center.X-h, v.Center.Y-h, v.Center.X+v.Diameter-h, v.Center.Y+v.Diameter-h), nil
	case Call:
		sym := f.SymbolByID(v.SymbolID)
		if sym == nil {
			return geom.Rect{}, fmt.Errorf("cif: call of undefined symbol %d", v.SymbolID)
		}
		if seen[v.SymbolID] {
			return geom.Rect{}, fmt.Errorf("cif: recursive call of symbol %d", v.SymbolID)
		}
		seen[v.SymbolID] = true
		inner, err := symbolBBox(f, sym, seen)
		delete(seen, v.SymbolID)
		if err != nil {
			return geom.Rect{}, err
		}
		return v.Transform.ApplyRect(inner), nil
	case Connector:
		return geom.Rect{Min: v.At, Max: v.At}, nil
	default: // UserExt
		return geom.Rect{}, nil
	}
}

func symbolBBox(f *File, s *Symbol, seen map[int]bool) (geom.Rect, error) {
	var r geom.Rect
	first := true
	for _, e := range s.ResolveScale() {
		if _, isExt := e.(UserExt); isExt {
			continue
		}
		eb, err := elementBBox(f, e, seen)
		if err != nil {
			return geom.Rect{}, err
		}
		if first {
			r = eb
			first = false
		} else {
			r = r.Union(eb)
		}
	}
	return r, nil
}

// SymbolBBox computes the bounding box of a symbol, recursing through
// calls. It returns an error for calls of undefined symbols or
// recursive symbol structures.
func (f *File) SymbolBBox(id int) (geom.Rect, error) {
	s := f.SymbolByID(id)
	if s == nil {
		return geom.Rect{}, fmt.Errorf("cif: undefined symbol %d", id)
	}
	return symbolBBox(f, s, map[int]bool{id: true})
}
