package castore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"

	"riot/internal/cif"
	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/sticks"
)

// Content signatures. Store keys must be stable across processes —
// the whole point is that tomorrow's riot invocation recognizes
// today's cells — so they cannot come from pointer identity or
// per-session counters the way the in-memory caches' keys do. A Key is
// the SHA-256 of a canonical serialization of everything the cached
// derivation can depend on: for a leaf, its full geometry, connectors
// and bounding box; for a composition, its instances' signatures and
// placements, recursively. Collisions are cryptographically
// negligible, which is what lets clients treat "key present" as "same
// content" without re-deriving anything.

// Key is a content-address: the SHA-256 of the keyed content.
type Key [sha256.Size]byte

// String returns the key as lowercase hex (the on-disk entry name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Short returns an abbreviated form for logs.
func (k Key) Short() string { return hex.EncodeToString(k[:6]) }

// Signer computes cell content signatures, memoizing leaf cells by
// pointer. Each memo entry records the cell's revision
// (core.Cell.Revision) at signing time and is ignored once the cell's
// revision moves on, so a long-lived Signer — a design server shares
// one across every session, for the lifetime of the process — can
// never serve a stale signature for a cell that was mutated in place.
// Composition signatures are recomputed per call — compositions mutate
// in place under edit — but each call costs only a walk over memoized
// leaf signatures. A Signer is safe for concurrent use.
type Signer struct {
	mu   sync.Mutex
	leaf map[*core.Cell]leafSig
}

// leafSig pairs a memoized signature with the cell revision it was
// computed at.
type leafSig struct {
	key Key
	rev uint64
}

// Cell returns the cell's content signature.
func (sg *Signer) Cell(c *core.Cell) (Key, error) {
	if c == nil {
		return Key{}, fmt.Errorf("castore: sig of nil cell")
	}
	var rev uint64
	if c.Kind != core.Composition {
		// capture the revision before hashing: a mutation racing the hash
		// bumps the revision past rev, so the entry stored below can never
		// pass a later revision check with a garbled signature
		rev = c.Revision()
		sg.mu.Lock()
		ent, ok := sg.leaf[c]
		sg.mu.Unlock()
		if ok && ent.rev == rev {
			return ent.key, nil
		}
	}
	h := newHasher()
	if err := sg.writeCell(h, c, 0); err != nil {
		return Key{}, err
	}
	k := h.sum()
	if c.Kind != core.Composition {
		sg.mu.Lock()
		if sg.leaf == nil {
			sg.leaf = map[*core.Cell]leafSig{}
		}
		sg.leaf[c] = leafSig{key: k, rev: rev}
		sg.mu.Unlock()
	}
	return k, nil
}

// maxCIFDepth bounds symbol-call recursion while hashing; the CIF
// loader already rejects recursive structures, but the signer must not
// trust that.
const maxCIFDepth = 64

func (sg *Signer) writeCell(h *hasher, c *core.Cell, depth int) error {
	h.str("cell")
	h.str(c.Name)
	h.ints(int(c.Kind))
	switch c.Kind {
	case core.LeafCIF:
		if c.Symbol == nil {
			return fmt.Errorf("castore: %s: CIF leaf with nil symbol", c.Name)
		}
		h.rect(c.CIFBox)
		if err := writeSymbol(h, c.CIFFile, c.Symbol, map[int]bool{}, depth); err != nil {
			return fmt.Errorf("castore: %s: %w", c.Name, err)
		}
	case core.LeafSticks:
		if c.Sticks == nil {
			return fmt.Errorf("castore: %s: sticks leaf with nil payload", c.Name)
		}
		writeSticks(h, c.Sticks)
	default:
		for _, cn := range c.ExtraConnectors {
			h.str("xconn")
			writeConnector(h, cn.Name, cn.At, string(cn.Layer), cn.Width, int(cn.Side))
		}
		for _, in := range c.Instances {
			sub, err := sg.Cell(in.Cell)
			if err != nil {
				return err
			}
			h.str("i")
			h.str(in.Name)
			h.key(sub)
			h.transform(in.Tr)
			h.ints(in.Nx, in.Ny, in.Sx, in.Sy)
		}
	}
	return nil
}

func writeSymbol(h *hasher, f *cif.File, sym *cif.Symbol, seen map[int]bool, depth int) error {
	if depth > maxCIFDepth {
		return fmt.Errorf("symbol nesting deeper than %d", maxCIFDepth)
	}
	h.str("sym")
	h.ints(sym.A, sym.B)
	for _, e := range sym.Elements {
		switch el := e.(type) {
		case cif.Box:
			h.str("B")
			h.str(string(el.Layer))
			h.ints(el.Length, el.Width)
			h.point(el.Center)
			h.point(el.Direction)
		case cif.Wire:
			h.str("W")
			h.str(string(el.Layer))
			h.ints(el.Width)
			h.points(el.Points)
		case cif.Polygon:
			h.str("P")
			h.str(string(el.Layer))
			h.points(el.Points)
		case cif.RoundFlash:
			h.str("R")
			h.str(string(el.Layer))
			h.ints(el.Diameter)
			h.point(el.Center)
		case cif.Connector:
			h.str("94")
			writeConnector(h, el.Name, el.At, string(el.Layer), el.Width, 0)
		case cif.Call:
			h.str("C")
			h.transform(el.Transform)
			if f == nil {
				return fmt.Errorf("call of symbol %d with no file context", el.SymbolID)
			}
			child := f.SymbolByID(el.SymbolID)
			if child == nil {
				return fmt.Errorf("call of undefined symbol %d", el.SymbolID)
			}
			if seen[el.SymbolID] {
				return fmt.Errorf("recursive call of symbol %d", el.SymbolID)
			}
			seen[el.SymbolID] = true
			if err := writeSymbol(h, f, child, seen, depth+1); err != nil {
				return err
			}
			delete(seen, el.SymbolID)
		case cif.UserExt:
			h.str("U")
			h.ints(el.Digit)
			h.str(el.Text)
		}
	}
	return nil
}

func writeSticks(h *hasher, sc *sticks.Cell) {
	h.str("sticks")
	h.str(sc.Name)
	h.ints(sc.EffUnits())
	for _, w := range sc.Wires {
		h.str("w")
		h.str(string(w.Layer))
		h.ints(w.Width)
		h.points(w.Points)
	}
	for _, d := range sc.Devices {
		h.str("d")
		h.ints(int(d.Kind), boolInt(d.Vertical), d.W, d.L)
		h.point(d.At)
	}
	for _, ct := range sc.Contacts {
		h.str("c")
		h.str(string(ct.From))
		h.str(string(ct.To))
		h.point(ct.At)
	}
	for _, cn := range sc.Connectors {
		h.str("n")
		writeConnector(h, cn.Name, cn.At, string(cn.Layer), cn.Width, int(cn.Side))
	}
	for _, cs := range sc.Constraints {
		h.str("k")
		h.ints(int(cs.Axis), cs.Min)
		h.str(cs.A)
		h.str(cs.B)
	}
	h.ints(boolInt(sc.HasBox))
	h.rect(sc.Box)
}

func writeConnector(h *hasher, name string, at geom.Point, layer string, width, side int) {
	h.str(name)
	h.point(at)
	h.str(layer)
	h.ints(width, side)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// hasher streams tagged fields into SHA-256. Strings are
// length-prefixed so field boundaries cannot alias.
type hasher struct {
	st  hash.Hash
	buf [8]byte
}

func newHasher() *hasher { return &hasher{st: sha256.New()} }

func (h *hasher) sum() Key {
	var k Key
	h.st.Sum(k[:0])
	return k
}

func (h *hasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(h.buf[:], v)
	h.st.Write(h.buf[:])
}

func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	h.st.Write([]byte(s))
}

func (h *hasher) ints(vs ...int) {
	for _, v := range vs {
		h.u64(uint64(int64(v)))
	}
}

func (h *hasher) point(p geom.Point) { h.ints(p.X, p.Y) }

func (h *hasher) points(ps []geom.Point) {
	h.ints(len(ps))
	for _, p := range ps {
		h.point(p)
	}
}

func (h *hasher) rect(r geom.Rect) { h.ints(r.Min.X, r.Min.Y, r.Max.X, r.Max.Y) }

func (h *hasher) transform(t geom.Transform) {
	h.ints(int(t.O))
	h.point(t.D)
}

func (h *hasher) key(k Key) { h.st.Write(k[:]) }
