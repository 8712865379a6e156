// Package geom provides the integer geometry kernel used throughout the
// Riot chip-assembly system: points, rectangles, the eight-element
// orientation group (rotations by multiples of 90 degrees combined with
// mirroring), affine placement transforms, mask layers and cell-edge
// sides.
//
// All coordinates are integers. By convention the design unit is the
// centimicron (0.01 micrometre), matching the Caltech Intermediate Form;
// cells authored in lambda-based symbolic form are scaled to centimicrons
// when they are converted to geometry. Integer arithmetic keeps every
// placement, abutment and routing operation exact, which is what lets
// Riot "guarantee that connections are made correctly".
//
// Beyond the primitives, the package provides Index, a uniform-grid
// spatial index over rectangle sets that turns the system's hot
// geometric queries — rectangle-touch enumeration and point location —
// from linear scans into expected constant-time bin lookups. The
// circuit extractor and the display's viewport culling both build on
// it.
package geom

import "fmt"

// Point is a location or displacement in the integer design plane.
type Point struct {
	X, Y int
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y int) Point { return Point{x, y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Neg returns -p.
func (p Point) Neg() Point { return Point{-p.X, -p.Y} }

// Scale returns p with both coordinates multiplied by k.
func (p Point) Scale(k int) Point { return Point{p.X * k, p.Y * k} }

// Div returns p with both coordinates divided by k (integer division).
func (p Point) Div(k int) Point { return Point{p.X / k, p.Y / k} }

// ManhattanDist returns |p.X-q.X| + |p.Y-q.Y|, the wire-length metric
// used by the river router.
func (p Point) ManhattanDist(q Point) int {
	return abs(p.X-q.X) + abs(p.Y-q.Y)
}

// String renders the point as "(x,y)".
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Rect is an axis-aligned rectangle. A Rect is normalized when
// Min.X <= Max.X and Min.Y <= Max.Y; the constructors always return
// normalized rectangles. The zero Rect is the empty rectangle at the
// origin.
type Rect struct {
	Min, Max Point
}

// R returns the normalized rectangle with the given corner coordinates.
func R(x0, y0, x1, y1 int) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Point{x0, y0}, Point{x1, y1}}
}

// RectFromPoints returns the normalized rectangle spanned by two corner
// points.
func RectFromPoints(a, b Point) Rect { return R(a.X, a.Y, b.X, b.Y) }

// Canon returns the normalized form of r.
func (r Rect) Canon() Rect { return R(r.Min.X, r.Min.Y, r.Max.X, r.Max.Y) }

// W returns the width of r.
func (r Rect) W() int { return r.Max.X - r.Min.X }

// H returns the height of r.
func (r Rect) H() int { return r.Max.Y - r.Min.Y }

// Area returns the area of r. Degenerate (zero width or height)
// rectangles have zero area.
func (r Rect) Area() int { return r.W() * r.H() }

// Empty reports whether r encloses no points (zero or negative extent in
// either axis).
func (r Rect) Empty() bool { return r.Min.X >= r.Max.X || r.Min.Y >= r.Max.Y }

// Center returns the center of r, rounded toward Min.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Translate returns r moved by d.
func (r Rect) Translate(d Point) Rect {
	return Rect{r.Min.Add(d), r.Max.Add(d)}
}

// Union returns the smallest rectangle containing both r and s. Empty
// rectangles are treated as identity elements.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() && r == (Rect{}) {
		return s
	}
	if s.Empty() && s == (Rect{}) {
		return r
	}
	return Rect{
		Point{min(r.Min.X, s.Min.X), min(r.Min.Y, s.Min.Y)},
		Point{max(r.Max.X, s.Max.X), max(r.Max.Y, s.Max.Y)},
	}
}

// UnionPoint returns the smallest rectangle containing r and p.
func (r Rect) UnionPoint(p Point) Rect {
	return r.Union(Rect{p, p})
}

// Intersect returns the intersection of r and s; the result is Empty if
// they do not overlap.
func (r Rect) Intersect(s Rect) Rect {
	t := Rect{
		Point{max(r.Min.X, s.Min.X), max(r.Min.Y, s.Min.Y)},
		Point{min(r.Max.X, s.Max.X), min(r.Max.Y, s.Max.Y)},
	}
	if t.Min.X > t.Max.X || t.Min.Y > t.Max.Y {
		return Rect{}
	}
	return t
}

// Overlaps reports whether r and s share any interior area.
func (r Rect) Overlaps(s Rect) bool {
	return r.Min.X < s.Max.X && s.Min.X < r.Max.X &&
		r.Min.Y < s.Max.Y && s.Min.Y < r.Max.Y
}

// Touches reports whether r and s share any point, including mere
// edge or corner contact. On a single mask layer, touching material is
// electrically connected.
func (r Rect) Touches(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Contains reports whether p lies inside r or on its boundary.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely within r (boundaries may
// touch).
func (r Rect) ContainsRect(s Rect) bool {
	return s.Min.X >= r.Min.X && s.Max.X <= r.Max.X &&
		s.Min.Y >= r.Min.Y && s.Max.Y <= r.Max.Y
}

// Inset returns r shrunk by d on every side (grown if d is negative).
func (r Rect) Inset(d int) Rect {
	return R(r.Min.X+d, r.Min.Y+d, r.Max.X-d, r.Max.Y-d)
}

// String renders the rectangle as "[x0,y0 x1,y1]".
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d %d,%d]", r.Min.X, r.Min.Y, r.Max.X, r.Max.Y)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
