package core

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"riot/internal/geom"
)

// Instance represents "the contents of a cell placed at a given
// location with a specified orientation and array replication count".
// The replication grid is laid out in cell coordinates (copy (i,j) is
// translated by (i*Sx, j*Sy)) and the whole grid is then placed by Tr,
// so orienting an array orients the grid as a unit.
type Instance struct {
	Name   string
	Cell   *Cell
	Tr     geom.Transform
	Nx, Ny int // replication counts, >= 1
	Sx, Sy int // replication spacing, centimicrons (center to center)
}

// NewInstance places a cell with replication 1x1.
func NewInstance(name string, cell *Cell, tr geom.Transform) *Instance {
	return &Instance{Name: name, Cell: cell, Tr: tr, Nx: 1, Ny: 1}
}

// CopyTransform returns the parent-space transform of array copy
// (i,j): the copy is laid out on the replication grid in cell space
// and the whole grid is placed by the instance transform.
func (in *Instance) CopyTransform(i, j int) geom.Transform {
	return geom.Translate(geom.Pt(i*in.Sx, j*in.Sy)).Then(in.Tr)
}

// Offset is the lattice step from array copy (i, j) to (i+DI, j+DJ).
type Offset struct{ DI, DJ int }

// PairOffsets returns the forward offsets (DI > 0, or DI == 0 < DJ)
// within the array at which copies of b, one grown by r, touch, by
// DI·Ny+DJ (then DI): the offsets that fit at any one copy reach
// copies in walk order. Copy (i, j) holds
// CopyTransform(i, j).ApplyRect(b), b in the cell's frame. It is
// exact: in that frame the two copies differ by (DI·Sx, DJ·Sy), a box
// grown by r touches its translate by (dx, dy) exactly when |dx| ≤ W+r
// and |dy| ≤ H+r, and the instance transform keeps boxes touching.
func (in *Instance) PairOffsets(b geom.Rect, r int) []Offset {
	reach := func(ext, step, n int) int {
		if step == 0 {
			return n - 1
		}
		return min((ext+r)/max(step, -step), n-1)
	}
	ri, rj := reach(b.W(), in.Sx, in.Nx), reach(b.H(), in.Sy, in.Ny)
	var out []Offset
	for di := 0; di <= ri; di++ {
		for dj := -rj; dj <= rj; dj++ {
			if di > 0 || dj > 0 {
				out = append(out, Offset{di, dj})
			}
		}
	}
	slices.SortFunc(out, func(a, c Offset) int {
		if d := cmp.Compare(a.DI*in.Ny+a.DJ, c.DI*in.Ny+c.DJ); d != 0 {
			return d
		}
		return cmp.Compare(a.DI, c.DI)
	})
	return out
}

// CopiesTouching calls fn(i, j) in walk order for each copy of b (as
// for PairOffsets) whose box touches q, boundary included: mapped into
// the array's cell frame, copy (i, j)'s box touches q exactly when
// i·Sx and j·Sy lie within q's extent less b's on each axis.
func (in *Instance) CopiesTouching(b, q geom.Rect, fn func(i, j int)) {
	q = in.Tr.Inverse().ApplyRect(q)
	i0, i1 := stepRange(q.Min.X-b.Max.X, q.Max.X-b.Min.X, in.Sx, in.Nx)
	j0, j1 := stepRange(q.Min.Y-b.Max.Y, q.Max.Y-b.Min.Y, in.Sy, in.Ny)
	for i := i0; i <= i1; i++ {
		for j := j0; j <= j1; j++ {
			fn(i, j)
		}
	}
}

// stepRange returns the first and last k in [0, n) with k·s in
// [lo, hi]; last < first when there is none.
func stepRange(lo, hi, s, n int) (int, int) {
	if s < 0 {
		lo, hi, s = -hi, -lo, -s
	}
	switch {
	case hi < 0 || s == 0 && lo > 0:
		return 0, -1
	case s == 0:
		return 0, n - 1
	}
	return max(0, (lo+s-1)/s), min(n-1, hi/s)
}

// BBox returns the instance's bounding box in parent coordinates,
// covering every array copy.
func (in *Instance) BBox() geom.Rect { return in.boxOf(in.Cell.BBox()) }

// boxOf is the instance's box when its cell's box is cb.
func (in *Instance) boxOf(cb geom.Rect) geom.Rect {
	r := in.CopyTransform(0, 0).ApplyRect(cb)
	if in.Nx > 1 || in.Ny > 1 {
		r = r.Union(in.CopyTransform(in.Nx-1, in.Ny-1).ApplyRect(cb))
	}
	return r
}

// IsArray reports whether the instance is replicated.
func (in *Instance) IsArray() bool { return in.Nx > 1 || in.Ny > 1 }

// Validate checks the replication parameters.
func (in *Instance) Validate() error {
	if in.Nx < 1 || in.Ny < 1 {
		return fmt.Errorf("core: instance %s: replication counts must be >= 1 (got %dx%d)", in.Name, in.Nx, in.Ny)
	}
	if in.Nx > 1 && in.Sx == 0 {
		return fmt.Errorf("core: instance %s: x-replicated with zero spacing", in.Name)
	}
	if in.Ny > 1 && in.Sy == 0 {
		return fmt.Errorf("core: instance %s: y-replicated with zero spacing", in.Name)
	}
	return nil
}

// InstConn is one connector of an instance, resolved into parent
// coordinates. For arrays, only connectors "on the outside edge of the
// array" exist: Riot allows no access to interior connectors on arrays.
type InstConn struct {
	Inst  *Instance
	Name  string // base name plus [i] / [i,j] array suffix
	At    geom.Point
	Layer geom.Layer
	Width int
	Side  geom.Side // side in parent space
}

// Connectors returns the instance's visible connectors in parent
// coordinates. A connector of an array copy is visible only if the
// copy sits on the edge of the array that the connector faces, so
// array interiors (which connect copy-to-copy by abutment) stay
// hidden.
func (in *Instance) Connectors() []InstConn {
	conns := in.Cell.memoized().conns
	out := make([]InstConn, 0, len(conns))
	in.Sites(conns, func(i, j, k int) {
		out = append(out, in.place(&conns[k], arrayName(conns[k].Name, i, j, in.Nx, in.Ny), i, j))
	})
	return out
}

// place puts connector cn of the defining cell, under its array name,
// at copy (i, j) in parent coordinates.
func (in *Instance) place(cn *Connector, name string, i, j int) InstConn {
	return InstConn{
		Inst:  in,
		Name:  name,
		At:    in.CopyTransform(i, j).Apply(cn.At),
		Layer: cn.Layer,
		Width: cn.Width,
		Side:  cn.Side.Transform(in.Tr.O),
	}
}

// Sites calls fn(i, j, k) for every visible connector of the
// instance: copies in grid order (i outer, j inner), then conns (the
// defining cell's connectors, in Cell.Connectors order, or a memoized
// copy of them) in order. Every connector of a 1x1 instance is
// visible; an array copy shows only the connectors that face the
// array's outside, so interior copies show none. It is the one
// enumeration of instance connectors: placement and every label table
// walk it.
func (in *Instance) Sites(conns []Connector, fn func(i, j, k int)) {
	arr := in.IsArray()
	for i := 0; i < in.Nx; i++ {
		for j := 0; j < in.Ny; j++ {
			if arr && i > 0 && i < in.Nx-1 && j > 0 && j < in.Ny-1 {
				continue
			}
			for k := range conns {
				if !arr || onArrayEdge(conns[k].Side, i, j, in.Nx, in.Ny) {
					fn(i, j, k)
				}
			}
		}
	}
}

// onArrayEdge reports whether the connector on (untransformed) side s
// of copy (i,j) faces the outside of an Nx x Ny array. Interior-facing
// copies are suppressed. Interior connectors (SideNone) are only
// visible on 1x1 instances.
func onArrayEdge(s geom.Side, i, j, nx, ny int) bool {
	switch s {
	case geom.SideLeft:
		return i == 0
	case geom.SideRight:
		return i == nx-1
	case geom.SideBottom:
		return j == 0
	case geom.SideTop:
		return j == ny-1
	}
	return false
}

// arrayName decorates a connector name with its array index:
// "OUT" for 1x1, "OUT[k]" for a one-axis array, "OUT[i,j]" for a grid.
func arrayName(base string, i, j, nx, ny int) string {
	if nx == 1 && ny == 1 {
		return base
	}
	return string(appendArrayName(make([]byte, 0, len(base)+8), base, i, j, nx, ny))
}

func appendArrayName(b []byte, base string, i, j, nx, ny int) []byte {
	b = append(b, base...)
	switch {
	case nx == 1 && ny == 1:
		return b
	case ny == 1:
		b = strconv.AppendInt(append(b, '['), int64(i), 10)
	case nx == 1:
		b = strconv.AppendInt(append(b, '['), int64(j), 10)
	default:
		b = strconv.AppendInt(append(b, '['), int64(i), 10)
		b = strconv.AppendInt(append(b, ','), int64(j), 10)
	}
	return append(b, ']')
}

// Connector resolves a (possibly array-indexed) connector name on the
// instance: the name's array suffix picks the copy, and the defining
// cell's memo finds the base name, which that copy must show. No list
// is built.
func (in *Instance) Connector(name string) (InstConn, error) {
	if base, i, j, ok := splitArrayName(name, in.Nx, in.Ny); ok {
		m := in.Cell.memoized()
		if k := m.find(base, i, j, in.Nx, in.Ny); k >= 0 {
			return in.place(&m.conns[k], name, i, j), nil
		}
	}
	return InstConn{}, fmt.Errorf("core: instance %s has no connector %q", in.Name, name)
}
