package core

import "slices"

// Snapshot isolation.
//
// A server wants many readers (verifiers, plotters, other sessions)
// working against a frozen view of a design while its editors keep
// mutating. Copying the whole hierarchy per generation would throw
// away the caches downstream: the hierarchical certificate memo, the
// LVS reference memo and the signer are keyed on *Cell / *Instance
// pointers, and fresh pointers every generation mean a cold cache
// every run.
//
// The builder below therefore clones copy-on-write, with two rules:
//
//   - Leaf cells are never cloned. Their payloads only change under an
//     editor's Invalidate (which stamps a new revision), so a frozen
//     generation can share the live leaf pointer, and every cache keyed
//     on leaf identity (hier certificates, LVS leaf references, signer
//     memos) keeps hitting across generations and across sessions.
//
//   - Composition cells and their instances are cloned, but a clone is
//     reused from the latest generation that cloned the cell whenever
//     the live cell's revision and children are unchanged. An edit to
//     one cell re-clones only that cell and its ancestors; every
//     untouched *Instance keeps its pointer, so instance-keyed memos
//     (the LVS reference's, the hier engine's retained composition)
//     keep hitting across generations exactly as they did against a
//     live editor — also when other cells were snapshotted in between.
//
//   - A re-cloned cell looks up each live instance's previous clone by
//     position first: the clone at the same index, when the same live
//     instance sits there. Only when a position holds another instance
//     (a delete or insert shifted the list) is a map from every previous
//     live instance to its clone built, once per re-clone. Either way a
//     clone is reused only while its cell clone, name and placement
//     still match, and a new live instance (a delete plus re-create,
//     even in the same place) gets a fresh clone.
//
// Clones carry src = the live cell they froze, surfaced as
// Cell.Origin(), so caches can answer "is this the same design cell as
// last run?" even though the pointer is new.

// snapBuilder holds the clone records for one design generation. A
// record outlives the generation that made it: it carries forward
// until its cell is cloned again or leaves the design, so a snapshot of
// another cell in between costs no pointer stability.
type snapBuilder struct {
	prev map[*Cell]cloneRec // latest record of every cell cloned before
	cur  map[*Cell]cloneRec // records (re)used this generation
}

type cloneRec struct {
	clone *Cell
	rev   uint64
	live  []*Instance // the live instance each clone instance froze
}

func newSnapBuilder(prev *snapBuilder) *snapBuilder {
	b := &snapBuilder{prev: map[*Cell]cloneRec{}, cur: map[*Cell]cloneRec{}}
	if prev != nil {
		b.prev = prev.prev
		for c, rec := range prev.cur {
			b.prev[c] = rec
		}
	}
	return b
}

// forget drops a cell's records (the cell left the design).
func (b *snapBuilder) forget(c *Cell) {
	delete(b.prev, c)
	delete(b.cur, c)
}

// cell returns the frozen clone of live cell c for this generation.
// Leaves return themselves.
func (b *snapBuilder) cell(c *Cell) *Cell {
	if c == nil || c.Kind != Composition {
		return c
	}
	if rec, ok := b.cur[c]; ok {
		return rec.clone
	}
	rev := c.Revision()
	rec, had := b.prev[c]
	if had && rec.rev == rev && len(rec.clone.Instances) == len(c.Instances) {
		stable := true
		for i, in := range c.Instances {
			if b.cell(in.Cell) != rec.clone.Instances[i].Cell {
				stable = false
				break
			}
		}
		if stable {
			b.cur[c] = rec
			return rec.clone
		}
	}
	cl := &Cell{
		Name:            c.Name,
		Kind:            Composition,
		SourceFile:      c.SourceFile,
		ExtraConnectors: slices.Clone(c.ExtraConnectors),
		Instances:       make([]*Instance, len(c.Instances)),
		rev:             rev,
		src:             c.Origin(),
	}
	var froze map[*Instance]*Instance
	for k, in := range c.Instances {
		child := b.cell(in.Cell)
		var ni *Instance
		switch {
		case !had:
		case k < len(rec.live) && rec.live[k] == in:
			ni = rec.clone.Instances[k]
		default:
			if froze == nil {
				froze = make(map[*Instance]*Instance, len(rec.live))
				for i, in := range rec.live {
					froze[in] = rec.clone.Instances[i]
				}
			}
			ni = froze[in]
		}
		if ni == nil || ni.Cell != child || ni.Name != in.Name || ni.Tr != in.Tr ||
			ni.Nx != in.Nx || ni.Ny != in.Ny || ni.Sx != in.Sx || ni.Sy != in.Sy {
			ni = &Instance{Name: in.Name, Cell: child, Tr: in.Tr,
				Nx: in.Nx, Ny: in.Ny, Sx: in.Sx, Sy: in.Sy}
		}
		cl.Instances[k] = ni
	}
	b.cur[c] = cloneRec{clone: cl, rev: rev, live: slices.Clone(c.Instances)}
	return cl
}

// builder returns the copy-on-write builder for the design's current
// generation, rotating when the design has moved on. Caller holds
// d.snapMu.
func (d *Design) builder() *snapBuilder {
	g := d.Generation()
	if d.snapB == nil || d.snapGen != g {
		d.snapB = newSnapBuilder(d.snapB)
		d.snapGen = g
	}
	return d.snapB
}

// SnapshotCell returns a frozen, read-only view of c at the design's
// current generation: a copy-on-write clone for compositions, c itself
// for leaves. Safe to call from any number of goroutines; the returned
// cell (and everything under it) is never mutated, so readers need no
// further locking. Repeated calls at an unchanged generation return
// the same pointer, and unchanged subtrees keep their pointers across
// generations — pointer-keyed verification caches keep hitting as if
// they were watching a live editor.
func (d *Design) SnapshotCell(c *Cell) *Cell {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	return d.builder().cell(c)
}

// snapshotEditor freezes an editor's cell plus its declared
// connections, remapped onto the clone's instances: each named
// instance is found by a scan of the live list, and one the cell does
// not hold keeps its pointer.
func (d *Design) snapshotEditor(c *Cell, declared []Connection) (*Cell, []Connection) {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	b := d.builder()
	cl := b.cell(c)
	if len(declared) == 0 {
		return cl, nil
	}
	live := b.cur[c].live
	clone := func(in *Instance) *Instance {
		if k := slices.Index(live, in); k >= 0 {
			return cl.Instances[k]
		}
		return in
	}
	decl := make([]Connection, 0, len(declared))
	for _, cn := range declared {
		cn.From, cn.To = clone(cn.From), clone(cn.To)
		decl = append(decl, cn)
	}
	return cl, decl
}

// Snapshot is a frozen view of one editor generation: the cell's
// copy-on-write clone and the declared connections remapped onto it.
// Snapshots are immutable and safe to share across goroutines.
type Snapshot struct {
	// Gen is the editor generation the snapshot freezes. Generations
	// are globally unique (one process-wide counter), so a Gen equality
	// is a design-state equality even across editors.
	Gen uint64
	// Cell is the frozen cell: a copy-on-write clone for compositions
	// (Cell.Origin() recovers the live cell), the live cell itself for
	// leaves.
	Cell *Cell
	// Declared are the editor's declared connections with From/To
	// remapped onto Cell's instances.
	Declared []Connection

	// designGen is the design's generation at freeze time. The editor's
	// own generation misses edits other editors make to sub-cells of the
	// same design; the cached-snapshot check compares both.
	designGen uint64
}

// Snapshot freezes the editor's current generation. The result is
// cached: repeated calls between edits return the same Snapshot, so a
// verifier and an LVS checker of the same generation see identical
// clone pointers (occurrence identity lines up for free). A sub-cell
// edit made through another editor of the same design rebuilds the
// frozen clone even though this editor's generation is unchanged. The
// editor may keep mutating afterwards; the snapshot never changes.
func (e *Editor) Snapshot() *Snapshot {
	var dg uint64
	if e.Design != nil {
		dg = e.Design.Generation()
	}
	if e.snap != nil && e.snap.Gen == e.gen && e.snap.designGen == dg {
		return e.snap
	}
	var (
		cl   *Cell
		decl []Connection
	)
	if e.Design != nil {
		cl, decl = e.Design.snapshotEditor(e.Cell, e.Declared)
	} else {
		cl = e.Cell
		decl = append([]Connection(nil), e.Declared...)
	}
	e.snap = &Snapshot{
		Gen:       e.gen,
		Cell:      cl,
		Declared:  decl,
		designGen: dg,
	}
	return e.snap
}
