// Package core implements Riot's composition model — the paper's
// primary contribution. It provides the separated hierarchy (leaf cells
// on the leaves, composition cells in the interior), instances with
// orientation and array replication, connectors, the pending-connection
// list, and the three guaranteed-correct connection operations: ABUT,
// ROUTE and STRETCH.
//
// All coordinates at this level are in centimicrons (CIF units). Leaf
// cells authored symbolically (Sticks, lambda units) are scaled on the
// way in; their symbolic form is retained so the STRETCH operation can
// re-solve them through the stick optimizer.
//
// Every cell memoizes its connector list, with an index by name
// (connmemo.go), and every connector lookup in the package reads the
// memo. A leaf's memo is valid while its Revision is; a composition's
// while its revision, its ExtraConnectors, and each instance's
// pointer, fields and child-cell memo are unchanged. The memo is never
// handed out: Cell.Connectors returns a copy the caller owns, and
// Instance.Connector and Cell.ConnectorByName resolve one name without
// listing.
package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"riot/internal/cif"
	"riot/internal/geom"
	"riot/internal/sticks"
)

// Connector is a connection point of a cell: "a location on or inside
// the bounding box of the cell, and the layer and width of the wire
// that makes that connection". Side records the bounding-box edge the
// connector lies on (SideNone for interior connectors).
type Connector struct {
	Name  string
	At    geom.Point // cell-local, centimicrons
	Layer geom.Layer
	Width int // centimicrons
	Side  geom.Side
}

// CellKind distinguishes the two kinds of cells in Riot's separated
// hierarchy.
type CellKind uint8

// The cell kinds. Leaf cells consist of primitive geometry (CIF) or
// symbolic layout (Sticks); composition cells "consist only of
// instances of other cells".
const (
	LeafCIF CellKind = iota
	LeafSticks
	Composition
)

// String names the kind.
func (k CellKind) String() string {
	switch k {
	case LeafCIF:
		return "leaf-cif"
	case LeafSticks:
		return "leaf-sticks"
	default:
		return "composition"
	}
}

// Cell is a node of the separated hierarchy. Exactly one of the payload
// fields is set, according to Kind:
//
//   - LeafCIF: Symbol holds CIF geometry (centimicrons) whose connector
//     extensions define the cell's connectors;
//   - LeafSticks: Sticks holds the symbolic cell (lambda units);
//   - Composition: Instances holds the placed instances.
//
// SourceFile records where a leaf cell was read from, for the
// composition format's file references.
type Cell struct {
	Name       string
	Kind       CellKind
	Symbol     *cif.Symbol
	CIFFile    *cif.File // the file Symbol came from (for nested calls)
	CIFBox     geom.Rect // bounding box of Symbol, resolved at load time
	Sticks     *sticks.Cell
	Instances  []*Instance
	SourceFile string
	// ExtraConnectors are composition-cell connectors created by
	// bring-out routes or declared in a composition file, in addition
	// to the instance connectors that lie on the bounding box.
	ExtraConnectors []Connector

	sticksMu  sync.Mutex  // guards sticksCIF (leaves are shared across sessions)
	sticksCIF *cif.Symbol // cached symbolic-to-CIF conversion

	// memo is the published connector memo (connmemo.go).
	memo atomic.Pointer[connMemo]

	// rev is the cell's mutation revision, stamped from the global edit
	// generation counter by the editor's touch paths (or MarkMutated for
	// out-of-band changes). Snapshot builders, content signers and the
	// connector memo read it to decide whether state memoized against
	// this pointer is still current. Accessed atomically.
	rev uint64

	// src, on a frozen snapshot clone, is the live cell the clone was
	// taken from; nil on live cells and on leaf cells (which snapshots
	// share rather than clone). Origin collapses a clone to its lineage
	// so caches keyed on "which design cell is this" survive re-cloning.
	src *Cell
}

// Revision reports the cell's mutation revision. Two reads returning
// the same value bracket a span with no (announced) mutation; 0 means
// the cell was never touched through an editor.
func (c *Cell) Revision() uint64 { return atomic.LoadUint64(&c.rev) }

// MarkMutated stamps a fresh revision on the cell. Editors call it
// implicitly on every mutation; callers that change a cell's payload
// directly (tests, loaders rewriting geometry in place) must call it so
// long-lived signers and snapshot builders notice. A leaf whose payload
// changes without it also keeps answering Connectors, ConnectorByName
// and Instance.Connector from its stale connector memo.
func (c *Cell) MarkMutated() { c.markRev(editorGen.Add(1)) }

func (c *Cell) markRev(g uint64) { atomic.StoreUint64(&c.rev, g) }

// Origin returns the live cell a snapshot clone was taken from, or the
// cell itself when it is live. Caches that must decide "same design
// cell as last run?" compare origins, since every generation gets a
// fresh clone pointer.
func (c *Cell) Origin() *Cell {
	if c.src != nil {
		return c.src
	}
	return c
}

// NewComposition returns an empty composition cell.
func NewComposition(name string) *Cell {
	return &Cell{Name: name, Kind: Composition}
}

// NewLeafFromSticks wraps a symbolic cell as a Riot leaf cell. The
// sticks cell must validate.
func NewLeafFromSticks(s *sticks.Cell) (*Cell, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Cell{Name: s.Name, Kind: LeafSticks, Sticks: s}, nil
}

// NewLeafFromCIF wraps one symbol of a parsed CIF file as a Riot leaf
// cell. Calls inside the symbol are flattened into the bounding box
// only (Riot never looks inside leaf geometry); connectors come from
// the 94 extensions.
func NewLeafFromCIF(f *cif.File, sym *cif.Symbol) (*Cell, error) {
	if sym == nil {
		return nil, fmt.Errorf("core: nil CIF symbol")
	}
	box, err := f.SymbolBBox(sym.ID)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", sym.Name, err)
	}
	name := sym.Name
	if name == "" {
		name = fmt.Sprintf("SYM%d", sym.ID)
	}
	c := &Cell{Name: name, Kind: LeafCIF, Symbol: sym, CIFFile: f, CIFBox: box}
	// validate connector uniqueness up front
	seen := map[string]bool{}
	for _, cn := range sym.Connectors() {
		if seen[cn.Name] {
			return nil, fmt.Errorf("core: %s: duplicate connector %q", name, cn.Name)
		}
		seen[cn.Name] = true
	}
	return c, nil
}

// BBox returns the cell's bounding box in centimicrons. For a
// composition cell it is the union of the instance bounding boxes.
func (c *Cell) BBox() geom.Rect {
	switch c.Kind {
	case LeafCIF:
		return c.CIFBox
	case LeafSticks:
		u := c.Sticks.EffUnits()
		b := c.Sticks.BBox()
		return geom.R(b.Min.X*u, b.Min.Y*u, b.Max.X*u, b.Max.Y*u)
	default:
		var r geom.Rect
		first := true
		for _, in := range c.Instances {
			ib := in.BBox()
			if first {
				r = ib
				first = false
			} else {
				r = r.Union(ib)
			}
		}
		return r
	}
}

// Connectors returns the cell's connectors in cell-local centimicron
// coordinates, in a slice the caller owns. For a composition cell this
// implements cell finishing: "a composition cell created by Riot
// includes those connectors from its instances which lie on its
// bounding box", plus any connectors added by bring-out routes. The
// list comes from the cell's connector memo (see connmemo.go).
func (c *Cell) Connectors() []Connector {
	return slices.Clone(c.memoized().conns)
}

// ConnectorByName finds a cell connector: the first of its name in
// Connectors order.
func (c *Cell) ConnectorByName(name string) (Connector, bool) {
	m := c.memoized()
	if k := m.find(name, 0, 0, 1, 1); k >= 0 {
		return m.conns[k], true
	}
	return Connector{}, false
}

// SticksCIF renders a symbolic leaf cell's mask geometry as a CIF
// symbol, caching the conversion. Only valid for LeafSticks cells.
// Safe for concurrent callers: leaf cells are shared (never cloned) by
// design snapshots, so several sessions can flatten the same leaf at
// once.
func (c *Cell) SticksCIF() (*cif.Symbol, error) {
	if c.Kind != LeafSticks {
		return nil, fmt.Errorf("core: %s is not a symbolic cell", c.Name)
	}
	c.sticksMu.Lock()
	defer c.sticksMu.Unlock()
	if c.sticksCIF == nil {
		sym, err := sticks.ToCIF(c.Sticks, 1)
		if err != nil {
			return nil, err
		}
		c.sticksCIF = sym
	}
	return c.sticksCIF, nil
}

// Uses reports whether cell c (transitively) instantiates target; used
// to reject hierarchy cycles.
func (c *Cell) Uses(target *Cell) bool {
	if c == target {
		return true
	}
	for _, in := range c.Instances {
		if in.Cell.Uses(target) {
			return true
		}
	}
	return false
}

// InstanceByName finds an instance of a composition cell.
func (c *Cell) InstanceByName(name string) (*Instance, bool) {
	for _, in := range c.Instances {
		if in.Name == name {
			return in, true
		}
	}
	return nil, false
}

// CountLeaves returns the number of leaf-cell placements under the
// cell, counting array replication; a measure of assembly size.
func (c *Cell) CountLeaves() int {
	if c.Kind != Composition {
		return 1
	}
	n := 0
	for _, in := range c.Instances {
		n += in.Cell.CountLeaves() * in.Nx * in.Ny
	}
	return n
}
