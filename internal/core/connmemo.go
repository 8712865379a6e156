package core

import (
	"slices"
	"strconv"
	"strings"

	"riot/internal/geom"
)

// Connector memo.
//
// Every cell keeps one memo of its connector list (Cell.Connectors'
// order), the box that list was derived against and an index by name.
// Instance.Connector resolves a name by splitting off the array suffix
// and looking the base name up, and a composition derives its list
// from its instances' memos instead of re-deriving theirs. A memo is
// published atomically and never mutated after: leaves and frozen
// clones are shared across server sessions.
//
// The validity rule (see the package doc) is the test the snapshot
// builder applies to a stable clone. Checking each instance's fields,
// not only the revision, covers a composition built without an editor
// (the compo loader). A payload change announced by neither
// MarkMutated nor Invalidate goes unseen.

type connMemo struct {
	rev   uint64
	box   geom.Rect   // the cell's BBox
	conns []Connector // Cell.Connectors' list
	// names indexes a composition's connectors by name (its names are
	// unique); nil on a leaf, whose short list is scanned.
	names map[string]int32
	head  []Connector // LabelHead: a leaf's conns, a composition's kept extras

	// What a composition's memo was derived from.
	extras []Connector
	insts  []memoInst
}

// memoInst is one instance as its composition's memo saw it.
type memoInst struct {
	in    *Instance
	was   Instance
	child *connMemo
}

// memoized returns c's connector memo, deriving and publishing a new
// one when the published memo no longer describes c.
func (c *Cell) memoized() *connMemo {
	rev, m := c.Revision(), c.memo.Load()
	if c.Kind != Composition {
		if m == nil || m.rev != rev {
			m = c.leafMemo(rev)
			c.memo.Store(m)
		}
		return m
	}
	same := 0
	if m != nil && m.rev == rev && len(m.insts) == len(c.Instances) && slices.Equal(m.extras, c.ExtraConnectors) {
		if same = m.unchanged(c.Instances); same == len(c.Instances) {
			return m
		}
	}
	m = c.compositionMemo(rev, m, same)
	c.memo.Store(m)
	return m
}

// unchanged returns how many leading instances still match the memo:
// the same pointer with the same fields, and a child memo that is
// still current. A run of instances of one cell validates its memo
// once.
func (m *connMemo) unchanged(insts []*Instance) int {
	var (
		cell *Cell
		cm   *connMemo
	)
	for k, in := range insts {
		mi := &m.insts[k]
		if in != mi.in || *in != mi.was {
			return k
		}
		if in.Cell != cell {
			cell, cm = in.Cell, in.Cell.memoized()
		}
		if cm != mi.child {
			return k
		}
	}
	return len(insts)
}

// leafMemo derives a leaf's memo.
func (c *Cell) leafMemo(rev uint64) *connMemo {
	m := &connMemo{rev: rev, box: c.BBox()}
	if c.Kind == LeafCIF {
		for _, cn := range c.Symbol.Connectors() {
			m.conns = append(m.conns, Connector{
				Name:  cn.Name,
				At:    cn.At,
				Layer: cn.Layer,
				Width: cn.Width,
				Side:  geom.SideOf(c.CIFBox, cn.At),
			})
		}
	} else {
		u := c.Sticks.EffUnits()
		m.conns = make([]Connector, 0, len(c.Sticks.Connectors))
		for _, cn := range c.Sticks.Connectors {
			m.conns = append(m.conns, Connector{
				Name:  cn.Name,
				At:    geom.Pt(cn.At.X*u, cn.At.Y*u),
				Layer: cn.Layer,
				Width: cn.EffWidth() * u,
				Side:  cn.Side,
			})
		}
	}
	m.head = m.conns
	return m
}

// compositionMemo derives a composition's memo from its instances'
// memos, taking those of the first same instances from old, which has
// just validated them. This is cell finishing: "a composition cell
// created by Riot includes those connectors from its instances which
// lie on its bounding box", each named "inst.CONN" with its copy's
// array suffix and deduped by name, then the extras LabelHead keeps
// (an extra no earlier connector names), each with its side on the
// box.
func (c *Cell) compositionMemo(rev uint64, old *connMemo, same int) *connMemo {
	m := &connMemo{
		rev:    rev,
		names:  map[string]int32{},
		extras: slices.Clone(c.ExtraConnectors),
		insts:  make([]memoInst, len(c.Instances)),
	}
	var (
		cell *Cell
		cm   *connMemo
	)
	for k, in := range c.Instances {
		switch {
		case k < same:
			cell, cm = in.Cell, old.insts[k].child
		case in.Cell != cell:
			cell, cm = in.Cell, in.Cell.memoized()
		}
		m.insts[k] = memoInst{in: in, was: *in, child: cm}
		if b := in.boxOf(cm.box); k == 0 {
			m.box = b
		} else {
			m.box = m.box.Union(b)
		}
	}
	var name []byte
	for k, in := range c.Instances {
		conns := m.insts[k].child.conns
		in.Sites(conns, func(i, j, p int) {
			cn := &conns[p]
			at := in.CopyTransform(i, j).Apply(cn.At)
			side := geom.SideOf(m.box, at)
			if side == geom.SideNone {
				return
			}
			name = appendArrayName(append(append(name[:0], in.Name...), '.'), cn.Name, i, j, in.Nx, in.Ny)
			if _, dup := m.names[string(name)]; !dup {
				m.add(Connector{Name: string(name), At: at, Layer: cn.Layer, Width: cn.Width, Side: side})
			}
		})
	}
	for _, cn := range c.ExtraConnectors {
		if _, dup := m.names[cn.Name]; !dup {
			m.head = append(m.head, cn)
			cn.Side = geom.SideOf(m.box, cn.At)
			m.add(cn)
		}
	}
	return m
}

func (m *connMemo) add(cn Connector) {
	m.names[cn.Name] = int32(len(m.conns))
	m.conns = append(m.conns, cn)
}

// find returns the position of the first connector named name that
// copy (i, j) of an nx x ny placement shows, or -1.
func (m *connMemo) find(name string, i, j, nx, ny int) int {
	shows := func(k int) bool {
		return nx == 1 && ny == 1 || onArrayEdge(m.conns[k].Side, i, j, nx, ny)
	}
	if m.names != nil {
		if k, ok := m.names[name]; ok && shows(int(k)) {
			return int(k)
		}
		return -1
	}
	for k := range m.conns {
		if m.conns[k].Name == name && shows(k) {
			return k
		}
	}
	return -1
}

// splitArrayName inverts arrayName for an nx x ny placement: the base
// name and the copy (i, j) that name's array suffix designates, the
// name's last '[' on. ok is false when the suffix is missing, out of
// range or not as arrayName writes it.
func splitArrayName(name string, nx, ny int) (base string, i, j int, ok bool) {
	if nx == 1 && ny == 1 {
		return name, 0, 0, true
	}
	lb := strings.LastIndexByte(name, '[')
	if lb < 0 {
		return "", 0, 0, false
	}
	first, second, grid := strings.Cut(strings.TrimSuffix(name[lb+1:], "]"), ",")
	i, _ = strconv.Atoi(first)
	if grid {
		j, _ = strconv.Atoi(second)
	}
	if nx == 1 {
		i, j = 0, i
	}
	var buf [48]byte
	ok = 0 <= i && i < nx && 0 <= j && j < ny && string(appendArrayName(buf[:0], "", i, j, nx, ny)) == name[lb:]
	return name[:lb], i, j, ok
}
