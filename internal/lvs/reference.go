package lvs

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"riot/internal/core"
	"riot/internal/extract"
	"riot/internal/flatten"
	"riot/internal/geom"
	"riot/internal/rules"
)

// This file derives the reference netlist — what the composition
// declares — without ever extracting the assembled design. Each cell
// gets one memoized entry:
//
//   - a leaf entry extracts the leaf alone (flatten + solve of just
//     that cell) and keeps its devices, its connectors each bound to
//     the net its own position resolves to (the leaf's label table),
//     and every solved fragment, tagged with the net it carries, with
//     the fragments' extent;
//   - a composition entry allocates a net block per instance copy and
//     unions blocks where the declared structure connects them:
//     connector points that coincide, and material that touches across
//     a sanctioned seam (leaf occurrence boxes that touch — the
//     abutment contract internal/drc also trusts).
//
// A seam reads its material on demand, by window (material): a leaf
// visits its fragments, a composition the fragments of those copies
// whose material extent touches the window, found by lattice
// arithmetic. How deep into each box a seam trusts material is decided
// per pair, from the two placed boxes alone (seamDepth), so no entry
// retains a boundary and no seam, however deep, rebuilds one.
//
// Which nets of two neighbouring copies union is a pure function of
// their sub-entries and relative placement, so it is derived once per
// distinct (sub-entry, orientation, sub-entry, orientation,
// translation) as a pair template and replayed for every copy pair
// that shares it — the same scheme internal/hier composes
// certificates with. An array stitches from its leaf entry plus one
// template per touching (i, j) offset, by lattice arithmetic; what
// scales with copies is integer work: the device copy, the union-find,
// the renumbering and the label table.
//
// Labels come from per-cell port bindings and carry no names: the top's
// label table (core's label sites, in order) is filled once per
// netlist, and connector k of a copy at net block base reads
// dense[base+bind[k]] of the copy's sub-entry, with no placement and no
// lookup. Only a connector with no net of its own (bind -1)
// point-queries the copy index, where a coincident neighbour's port may
// answer for it. A composition derives the parts a parent reads
// (connectors, bindings, port nets, material extent) when a parent
// stitch first reads them, so the top of a check never places its
// instances' connectors.
//
// Entries are validated by a structural signature (instance
// placements, recursively, and each leaf's revision), so an edit
// rebuilds exactly the entries whose cells changed: moving one
// instance re-stitches its composition but re-extracts no leaf.

// portKey identifies a connector position: connectors coincide when
// they share a point and a layer.
type portKey struct {
	x, y  int
	layer geom.Layer
}

// mfrag is one placed piece of material: its rectangle and the
// bounding box of the leaf occurrence that drew it, and the net it
// carries.
type mfrag struct {
	layer   geom.Layer
	r       geom.Rect
	leafBox geom.Rect
	net     int32
}

// refEntry is one cell's memoized reference derivation.
type refEntry struct {
	sig     uint64
	nets    int
	devices []Device
	leaves  int // leaf occurrences under the entry (1 for a leaf)
	// cell is the cell the entry derives (the memo is keyed by its
	// snapshot origin)
	cell *core.Cell

	// the parts a parent stitch reads: the cell's connectors, bind[k]
	// the entry net conns[k]'s own position resolves to (-1: no
	// material there; a leaf's bind is its label table), the resolved
	// ones indexed by position, and the extent of the cell's material.
	// A leaf derives them with its entry, a composition on first read
	// (face).
	faced   bool
	conns   []core.Connector
	bind    []int32
	portNet map[portKey]int32
	mext    geom.Rect

	// a leaf entry keeps every solved fragment with its net
	frags []extract.NetShape

	// a composition entry keeps its copies, the sub-entry and port box
	// of each instance and the dense net of every block net, so
	// connector positions resolve lazily (netAt) and label tables read
	// nets by index; ix, the copies' port box index, is built on first
	// need (index); tmpl holds the pair templates its last stitch
	// replayed
	copies []copySlot
	subs   []*refEntry
	pboxes []geom.Rect
	ix     *geom.Index
	dense  []int32
	tmpl   map[tmplKey][][2]int32
	err    error
}

// copySlot is one instance copy of a composition: its placement, its
// instance (indexing refEntry.subs) and its net block base.
type copySlot struct {
	tr   geom.Transform
	inst int32
	base int32
}

// tmplKey identifies a pair template: sub-entry V placed at (ov, d)
// relative to sub-entry U placed at (ou, origin). Entries are keyed by
// pointer, so a rebuilt sub-entry never reads a stale template.
type tmplKey struct {
	u, v   *refEntry
	ou, ov geom.Orient
	dx, dy int
}

// RefStats is the reference memo's cumulative accounting: standalone
// leaf extractions, pair templates, the label names its comparisons
// formatted, and the checks the template witness settled.
type RefStats struct {
	LeavesExtracted int // standalone leaf extractions (-stats "leaves_extracted")
	TemplatesBuilt  int // pair templates derived
	TemplateHits    int // copy pairs replayed from an existing template
	// NamesFormatted counts the label names a check's name maps hold,
	// on either side: only a name-keyed (flat) comparison names its
	// tables.
	NamesFormatted int
	// TemplateCertified counts the checks the template witness settled
	// (-stats "template_certified"): arrays that no stitch derived.
	// Each such check builds its own offset templates (TemplatesBuilt)
	// and replays no copy pair (TemplateHits).
	TemplateCertified int
}

// Reference derives and memoizes reference netlists. The zero value is
// ready to use; one Reference serves any number of cells (entries are
// keyed per cell and validated against a placement signature, so
// edited compositions re-stitch while untouched cells and all leaf
// extractions are reused).
//
// A Reference belongs to one session: its memos are keyed by *Cell /
// *Instance pointer, so a derivation asserts single-threaded entry
// rather than corrupt them. Nothing in it persists: a fresh session
// re-derives each distinct leaf in process, one standalone extraction
// per leaf. Snapshot clones of one design cell are handled naturally:
// unchanged subtrees keep their pointers, and the memo keys entries by
// snapshot origin (Cell.Origin), so a newer clone's entry supersedes
// the older one's (taking its templates where they still hold) along
// with the older clone's id. A long-lived session's memory is bounded
// by the design, not by its history: each composition entry carries
// only the pair templates its latest stitch replayed.
type Reference struct {
	ids    map[*core.Cell]uint64
	lastID uint64
	memo   map[*core.Cell]*refEntry
	stats  RefStats

	// busy asserts single-session use of the pointer-keyed memos; a
	// plain int32 with atomic access keeps the struct copyable.
	busy int32
}

// Stats reports the memo's cumulative accounting.
func (rf *Reference) Stats() RefStats { return rf.stats }

// Netlist derives the reference netlist of a cell, its label table
// named (Labels). declared lists connection records to honor on top of
// the cell's structure — the editing session's retained Connection
// list; nil is valid and means "structure only" (cells loaded from
// files carry no records).
func (rf *Reference) Netlist(c *core.Cell, declared []core.Connection) (*Netlist, error) {
	nl, _, err := rf.unnamed(c, declared)
	if err != nil {
		return nil, err
	}
	nl.Labels = core.LabelMap(c, nl.Sites)
	return nl, nil
}

// unnamed is Netlist without names (Labels nil, the label table in
// Sites), plus the count of the cell's leaf occurrences.
func (rf *Reference) unnamed(c *core.Cell, declared []core.Connection) (*Netlist, int, error) {
	if !atomic.CompareAndSwapInt32(&rf.busy, 0, 1) {
		return nil, 0, fmt.Errorf("lvs: Reference entered concurrently (a Reference serves one session)")
	}
	defer atomic.StoreInt32(&rf.busy, 0)
	e := rf.entry(c)
	if e.err != nil {
		return nil, 0, e.err
	}
	tab := e.table(c)
	if len(declared) == 0 {
		// nothing to union on top: the entry IS the netlist. Devices are
		// shared read-only with the memo.
		return &Netlist{NetCount: e.nets, Devices: e.devices, Sites: tab}, e.leaves, nil
	}

	// apply the declared records on top of the entry's net space, then
	// compress to the dense netlist
	uf := geom.NewUnionFind(e.nets)
	for _, conn := range declared {
		rf.declareUnion(uf, e, conn)
	}
	out := &Netlist{Sites: tab}
	out.Devices = append([]Device(nil), e.devices...)
	dense, nets := renumber(uf, e.nets, out.Devices)
	out.NetCount = nets
	for s, n := range tab {
		if n >= 0 {
			tab[s] = dense[n]
		}
	}
	return out, e.leaves, nil
}

// renumber compresses a union-find over n block nets to dense nets,
// numbered by first appearance in the devices (rewritten in place) and
// then in block order — a function of the structure alone, never of
// map iteration order. Nets carrying neither devices nor labels still
// count, so NetCount matches the layout side's convention. It returns
// the dense net of every block net and the dense net count.
func renumber(uf *geom.UnionFind, n int, devs []Device) ([]int32, int) {
	remap := make([]int32, n)
	for i := range remap {
		remap[i] = -1
	}
	nets := 0
	id := func(x int) int {
		root := uf.Find(x)
		if remap[root] < 0 {
			remap[root] = int32(nets)
			nets++
		}
		return int(remap[root])
	}
	for i, d := range devs {
		devs[i] = Device{Kind: d.Kind, Gate: id(d.Gate), A: id(d.A), B: id(d.B)}
	}
	dense := make([]int32, n)
	for x := range dense {
		dense[x] = int32(id(x))
	}
	return dense, nets
}

// table fills the label table of c, a cell of the entry's signature,
// in entry numbering: a leaf's is its bind (copied, as a caller may
// renumber it), a composition's reads every kept extra through netAt,
// then every instance site — connector k of a copy names
// dense[base+bind[k]] of its sub-entry, and a connector bound to no net
// point-queries the copy index, where any copy holding a resolved port
// at the point answers (the stitch unions coincident ports, so all
// such copies agree).
func (e *refEntry) table(c *core.Cell) []int32 {
	if c.Kind != core.Composition {
		return append([]int32(nil), e.bind...)
	}
	head := core.LabelHead(c)
	hint := len(head)
	for ii, in := range c.Instances {
		hint += len(e.subs[ii].conns) * max(in.Nx, in.Ny)
	}
	tab := make([]int32, 0, hint)
	for _, cn := range head {
		tab = append(tab, e.netAt(cn.At, cn.Layer))
	}
	first := 0
	for ii, in := range c.Instances {
		sub, fi := e.subs[ii], first
		in.Sites(sub.conns, func(i, j, k int) {
			cr := e.copies[fi+i*in.Ny+j]
			n := sub.bind[k]
			if n >= 0 {
				n = e.dense[cr.base+n]
			} else {
				n = e.netAt(cr.tr.Apply(sub.conns[k].At), sub.conns[k].Layer)
			}
			tab = append(tab, n)
		})
		first += in.Nx * in.Ny
	}
	return tab
}

// netAt resolves a connector position to the entry's net, -1 when no
// material lies there. A leaf reads its port table; a composition
// point-queries its copy index, maps the point into each candidate
// copy's frame and reads that sub-entry's port table. The stitch unions
// coincident connectors of different copies, so the first copy that
// resolves the point answers for all.
func (e *refEntry) netAt(at geom.Point, layer geom.Layer) int32 {
	if e.cell.Kind != core.Composition {
		if n, ok := e.portNet[portKey{at.X, at.Y, layer}]; ok {
			return n
		}
		return -1
	}
	net := int32(-1)
	e.index().QueryPoint(at, func(ci int) bool {
		cr := e.copies[ci]
		p := cr.tr.Inverse().Apply(at)
		n, ok := e.subs[cr.inst].portNet[portKey{p.X, p.Y, layer}]
		if ok {
			net = e.dense[cr.base+n]
		}
		return !ok
	})
	return net
}

// index returns the copy index over placed port boxes, built on first
// need: pairs across instances and netAt. An array's own pairs come
// from lattice arithmetic, so a single-array top whose connectors all
// bind builds none.
func (e *refEntry) index() *geom.Index {
	if e.ix == nil {
		rects := make([]geom.Rect, len(e.copies))
		for ci, cr := range e.copies {
			rects[ci] = cr.tr.ApplyRect(e.pboxes[cr.inst])
		}
		e.ix = geom.NewIndexFrom(rects)
	}
	return e.ix
}

// face derives a composition entry's parent-facing parts on first
// read (a leaf's come with its entry): its connectors, each bound
// through netAt, and its material extent, spanned from each instance's
// corner copies.
func (e *refEntry) face() *refEntry {
	if e.faced {
		return e
	}
	e.faced = true
	c := e.cell
	e.conns = c.Connectors()
	e.bind = make([]int32, len(e.conns))
	for k, cn := range e.conns {
		e.bind[k] = e.netAt(cn.At, cn.Layer)
	}
	for ii, in := range c.Instances {
		m := e.subs[ii].mext
		r := span(in.CopyTransform(0, 0).ApplyRect(m), in.CopyTransform(in.Nx-1, in.Ny-1).ApplyRect(m))
		if ii == 0 {
			e.mext = r
		}
		e.mext = span(e.mext, r)
	}
	e.indexPorts()
	return e
}

// indexPorts indexes the bound connectors by position.
func (e *refEntry) indexPorts() {
	e.portNet = make(map[portKey]int32, len(e.conns))
	for k, cn := range e.conns {
		key := portKey{cn.At.X, cn.At.Y, cn.Layer}
		if _, dup := e.portNet[key]; !dup && e.bind[k] >= 0 {
			e.portNet[key] = e.bind[k]
		}
	}
}

// material calls fn with each piece of the entry's material that
// touches win, placed by tr (win is in the placed frame), its net in
// the entry's numbering. A leaf visits its fragments; a composition
// visits those of each copy whose material extent touches win, found
// by lattice arithmetic, with the copy's net block mapped through the
// entry's dense nets.
func (e *refEntry) material(tr geom.Transform, win geom.Rect, fn func(mfrag)) {
	if e.cell.Kind != core.Composition {
		box := tr.ApplyRect(e.cell.BBox())
		for _, f := range e.frags {
			if r := tr.ApplyRect(f.R); r.Touches(win) {
				fn(mfrag{layer: f.Layer, r: r, leafBox: box, net: f.Net})
			}
		}
		return
	}
	q := tr.Inverse().ApplyRect(win)
	first := 0
	for ii, in := range e.cell.Instances {
		sub := e.subs[ii]
		in.CopiesTouching(sub.mext, q, func(i, j int) {
			cr := e.copies[first+i*in.Ny+j]
			sub.material(cr.tr.Then(tr), win, func(f mfrag) {
				f.net = e.dense[cr.base+f.net]
				fn(f)
			})
		})
		first += in.Nx * in.Ny
	}
}

// declareUnion applies one declared connection record: both connector
// positions resolve to the entry's nets and those union. Records whose
// endpoints no longer resolve (a renamed connector, material removed
// from under a point) are skipped — there is no net to tie.
func (rf *Reference) declareUnion(uf *geom.UnionFind, e *refEntry, conn core.Connection) {
	fc, err := conn.From.Connector(conn.FromConn)
	if err != nil {
		return
	}
	tc, err := conn.To.Connector(conn.ToConn)
	if err != nil {
		return
	}
	fn, tn := e.netAt(fc.At, fc.Layer), e.netAt(tc.At, tc.Layer)
	if fn >= 0 && tn >= 0 {
		uf.Union(int(fn), int(tn))
	}
}

// cellID returns a stable (per-Reference) numeric id for a cell. Ids
// are never reused, so a superseded clone's id cannot alias a live
// cell's signature.
func (rf *Reference) cellID(c *core.Cell) uint64 {
	if rf.ids == nil {
		rf.ids = map[*core.Cell]uint64{}
	}
	id, ok := rf.ids[c]
	if !ok {
		rf.lastID++
		id = rf.lastID
		rf.ids[c] = id
	}
	return id
}

// sigOf computes a cell's structural signature: for leaves the cell
// identity and revision (STRETCH swaps the cell pointer; a payload
// changed in place is announced through Editor.Invalidate or
// Cell.MarkMutated, which stamp a new revision), for compositions a
// hash of every instance's defining-cell signature and placement. An
// entry whose signature still matches is current.
func (rf *Reference) sigOf(c *core.Cell) uint64 {
	h := fnvMix(fnvOffset, rf.cellID(c))
	if c.Kind != core.Composition {
		return fnvMix(h, c.Revision())
	}
	for _, in := range c.Instances {
		h = fnvMix(h, rf.sigOf(in.Cell))
		h = fnvMix(h, uint64(uint32(in.Tr.O)))
		h = fnvMix(h, pack32(in.Tr.D.X, in.Tr.D.Y))
		h = fnvMix(h, pack32(in.Nx, in.Ny))
		h = fnvMix(h, pack32(in.Sx, in.Sy))
	}
	return h
}

// fnv-1a, the hash behind placement signatures and refinement colors.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvMix folds one 64-bit value into an fnv-1a hash, byte by byte.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// pack32 packs two ints into one hashable word (low 32 bits each).
func pack32(a, b int) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// entry returns the cell's current derivation, rebuilding it when the
// structural signature says the memoized one is stale.
func (rf *Reference) entry(c *core.Cell) *refEntry {
	sig := rf.sigOf(c)
	old := rf.memo[c.Origin()]
	if old != nil && old.sig == sig {
		return old
	}
	var e *refEntry
	if c.Kind == core.Composition {
		e = rf.stitch(c, old)
	} else {
		e = rf.leafEntry(c)
	}
	e.sig, e.cell = sig, c
	if rf.memo == nil {
		rf.memo = map[*core.Cell]*refEntry{}
	}
	rf.memo[c.Origin()] = e
	if old != nil && old.cell != c {
		delete(rf.ids, old.cell) // a superseded clone's id
	}
	return e
}

// leafEntry extracts a leaf cell alone and packages its netlist, ports
// and solved fragments.
func (rf *Reference) leafEntry(c *core.Cell) *refEntry {
	rf.stats.LeavesExtracted++
	fr, err := flatten.Cell(c)
	if err != nil {
		return &refEntry{err: fmt.Errorf("lvs: leaf %s: %w", c.Name, err)}
	}
	ckt, frags, err := extract.SolveNets(fr)
	if err != nil {
		return &refEntry{err: fmt.Errorf("lvs: leaf %s: %w", c.Name, err)}
	}
	e := &refEntry{nets: ckt.NetCount, leaves: 1, faced: true, frags: frags}
	e.devices = make([]Device, len(ckt.Transistors))
	for i, t := range ckt.Transistors {
		e.devices[i] = Device{Kind: t.Kind, Gate: t.Gate, A: t.A, B: t.B}
	}
	// a leaf's label sites are its connectors, so the extraction's
	// label table binds each connector to the net its position resolves
	// to
	e.conns, e.bind = c.Connectors(), ckt.Sites
	for i, f := range frags {
		if i == 0 {
			e.mext = f.R
		}
		e.mext = span(e.mext, f.R)
	}
	e.indexPorts()
	return e
}

// stitch derives a composition's entry from its instances' entries:
// per-copy net blocks unioned at coincident connector points and
// across sanctioned abutment seams, both replayed from pair templates.
// old is the entry being replaced, or nil: templates it holds carry
// over when this stitch replays them again. The parts a parent reads
// come later, from face.
//
// Copies pair where their port boxes touch. Two copies of one ARRAY
// pair by lattice arithmetic: touching and template are functions of
// their (i, j) offset alone, so each touching offset resolves once and
// replays over the copies it joins. Copies of different instances pair
// through the copy index.
func (rf *Reference) stitch(c *core.Cell, old *refEntry) *refEntry {
	e := &refEntry{pboxes: make([]geom.Rect, len(c.Instances))}

	// every copy's placement, and each instance's port box (cell frame)
	known := map[*core.Cell]geom.Rect{}
	for ii, in := range c.Instances {
		pb, ok := known[in.Cell]
		if !ok {
			pb = portBox(in.Cell)
			known[in.Cell] = pb
		}
		e.pboxes[ii] = pb
		for i := 0; i < in.Nx; i++ {
			for j := 0; j < in.Ny; j++ {
				e.copies = append(e.copies, copySlot{tr: in.CopyTransform(i, j), inst: int32(ii)})
			}
		}
	}

	e.subs = make([]*refEntry, len(c.Instances))
	for ii, in := range c.Instances {
		sub := rf.entry(in.Cell)
		if sub.err != nil {
			e.err = sub.err
			return e
		}
		e.subs[ii] = sub.face()
	}

	// a net block per copy, its devices in block numbering: flatten
	// walk order (instances in declaration order, copies x-major, each
	// sub-entry's devices in its own walk order)
	total, ndev := 0, 0
	for ci := range e.copies {
		sub := e.subs[e.copies[ci].inst]
		e.copies[ci].base = int32(total)
		total += sub.nets
		ndev += len(sub.devices)
		e.leaves += sub.leaves
	}
	e.devices = make([]Device, 0, ndev)
	for _, cr := range e.copies {
		b := int(cr.base)
		for _, d := range e.subs[cr.inst].devices {
			e.devices = append(e.devices, Device{Kind: d.Kind, Gate: b + d.Gate, A: b + d.A, B: b + d.B})
		}
	}

	// replay every pair's template, then compress to dense nets
	uf := geom.NewUnionFind(total)
	e.tmpl = map[tmplKey][][2]int32{}
	var carry map[tmplKey][][2]int32
	if old != nil {
		carry = old.tmpl
	}
	first := 0
	for ii, in := range c.Instances {
		sub, o := e.subs[ii], in.Tr.O
		for _, off := range in.PairOffsets(e.pboxes[ii], 0) {
			d := in.CopyTransform(off.DI, off.DJ).D.Sub(in.Tr.D)
			t := rf.template(e.tmpl, carry, tmplKey{u: sub, v: sub, ou: o, ov: o, dx: d.X, dy: d.Y})
			rf.stats.TemplateHits += (in.Nx-off.DI)*(in.Ny-max(off.DJ, -off.DJ)) - 1 // the other copy pairs
			for i := 0; i+off.DI < in.Nx; i++ {
				for j := max(0, -off.DJ); j < in.Ny && j+off.DJ < in.Ny; j++ {
					bu := e.copies[first+i*in.Ny+j].base
					bv := e.copies[first+(i+off.DI)*in.Ny+j+off.DJ].base
					for _, un := range t {
						uf.Union(int(bu+un[0]), int(bv+un[1]))
					}
				}
			}
		}
		first += in.Nx * in.Ny
	}
	if len(c.Instances) > 1 {
		e.index().Pairs(0, func(u, v int) {
			cu, cv := e.copies[u], e.copies[v]
			if cv.inst == cu.inst {
				return
			}
			d := cv.tr.D.Sub(cu.tr.D)
			k := tmplKey{u: e.subs[cu.inst], v: e.subs[cv.inst], ou: cu.tr.O, ov: cv.tr.O, dx: d.X, dy: d.Y}
			for _, un := range rf.template(e.tmpl, carry, k) {
				uf.Union(int(cu.base+un[0]), int(cv.base+un[1]))
			}
		})
	}
	e.dense, e.nets = renumber(uf, total, e.devices)
	return e
}

// template returns the pair template for k: from the stitch's own
// memo, else carried over from the entry being replaced, else derived.
func (rf *Reference) template(memo, carry map[tmplKey][][2]int32, k tmplKey) [][2]int32 {
	t, ok := memo[k]
	if !ok {
		if t, ok = carry[k]; ok {
			memo[k] = t
		}
	}
	if ok {
		rf.stats.TemplateHits++
		return t
	}
	t = buildTemplate(k)
	memo[k] = t
	rf.stats.TemplatesBuilt++
	return t
}

// buildTemplate derives which nets of two placed sub-entries union, as
// deduplicated (U net, V net) pairs: connectors that coincide, and —
// when the placed boxes touch — material on the same layer that
// touches across the seam and whose drawing leaf occurrences' boxes
// touch, the same provenance test the DRC trusts. Each side reads its
// material in the seam window, trusted as deep into its box as the
// seam's own geometry reaches (seamDepth): the union set is a function
// of the two entries and their placement alone.
func buildTemplate(k tmplKey) [][2]int32 {
	tu := geom.Transform{O: k.ou}
	tv := geom.Transform{O: k.ov, D: geom.Pt(k.dx, k.dy)}
	var unions [][2]int32

	// coincident connectors: U's bound ports mapped into V's frame
	toV := tu.Then(tv.Inverse())
	for i, cn := range k.u.conns {
		if k.u.bind[i] < 0 {
			continue
		}
		at := toV.Apply(cn.At)
		if n, ok := k.v.portNet[portKey{at.X, at.Y, cn.Layer}]; ok {
			unions = append(unions, [2]int32{k.u.bind[i], n})
		}
	}

	// the seam window: the (possibly degenerate) box intersection,
	// inflated by the contract's reach — every cross-copy contact point
	// lies inside it
	bu, bv := tu.ApplyRect(k.u.cell.BBox()), tv.ApplyRect(k.v.cell.BBox())
	sx0, sy0 := max(bu.Min.X, bv.Min.X), max(bu.Min.Y, bv.Min.Y)
	sx1, sy1 := min(bu.Max.X, bv.Max.X), min(bu.Max.Y, bv.Max.Y)
	if sx0 <= sx1 && sy0 <= sy1 {
		win := geom.R(sx0-seamReach, sy0-seamReach, sx1+seamReach, sy1+seamReach)
		innerU, innerV := bu.Inset(seamDepth(bu, bv)), bv.Inset(seamDepth(bv, bu))
		var mine []mfrag // U's seam material, placed
		k.u.material(tu, win, func(f mfrag) {
			if !innerU.ContainsRect(f.r) {
				mine = append(mine, f)
			}
		})
		k.v.material(tv, win, func(f mfrag) {
			if innerV.ContainsRect(f.r) {
				return
			}
			for _, fu := range mine {
				if fu.layer == f.layer && fu.leafBox.Touches(f.leafBox) && fu.r.Touches(f.r) {
					unions = append(unions, [2]int32{fu.net, f.net})
				}
			}
		})
	}
	slices.SortFunc(unions, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return cmp.Compare(a[0], b[0])
		}
		return cmp.Compare(a[1], b[1])
	})
	return slices.Compact(unions)
}

// seamReach is the base distance the abutment contract reaches into a
// cell, in centimicrons: for plainly abutted boxes (touching, not
// overlapping), material within this distance of the cell's bounding
// box participates in seam continuity. Wire end caps and rail halves
// bleed at most half the widest library wire (2 lambda) past the box,
// so 4 lambda covers every sanctioned contact point with margin. It is
// not a cap on seam trust: an ABUT OVERLAP places the boxes
// overlapping, and material as deep as the overlap reaches can
// legitimately touch the neighbour's (seamDepth).
const seamReach = 4 * rules.Lambda

// seamDepth bounds how deep (in centimicrons, measured inward from
// bu's boundary) sanctioned seam contact against bv can reach into bu:
// the deepest point of the pair's seam window — the box intersection
// inflated by seamReach — measured by inward L-infinity distance.
// Plainly abutted boxes yield the base reach; an ABUT OVERLAP yields
// overlap depth plus margin. The bound errs high (the margin absorbs
// material bleeding past the boxes and exact-boundary contact), never
// low, and never past half of bu's narrower side, so bu.Inset of it
// cannot invert.
func seamDepth(bu, bv geom.Rect) int {
	sx0, sy0 := max(bu.Min.X, bv.Min.X), max(bu.Min.Y, bv.Min.Y)
	sx1, sy1 := min(bu.Max.X, bv.Max.X), min(bu.Max.Y, bv.Max.Y)
	if sx0 > sx1 || sy0 > sy1 {
		return 0
	}
	dx := axisDepth(max(sx0-seamReach, bu.Min.X), min(sx1+seamReach, bu.Max.X), bu.Min.X, bu.Max.X)
	dy := axisDepth(max(sy0-seamReach, bu.Min.Y), min(sy1+seamReach, bu.Max.Y), bu.Min.Y, bu.Max.Y)
	return min(dx, dy)
}

// axisDepth is the maximum over x in [w0, w1] of min(x-b0, b1-x): the
// deepest one-axis penetration of the window into the box span.
func axisDepth(w0, w1, b0, b1 int) int {
	x := min(max((b0+b1)/2, w0), w1)
	return min(x-b0, b1-x)
}

// portBox is where a copy of c can hold connectors, in c's frame: its
// box grown over any connector placed outside it (a leaf's free
// connectors, a composition's explicit extras; the instance connectors
// a composition exports lie on its box by construction). Copies pair
// up wherever these boxes touch, so coincident connectors union even
// when the copies' boxes do not touch.
func portBox(c *core.Cell) geom.Rect {
	r := c.BBox()
	if c.Kind == core.Composition {
		for _, cn := range c.ExtraConnectors {
			r = span(r, geom.Rect{Min: cn.At, Max: cn.At})
		}
		return r
	}
	for _, cn := range c.Connectors() {
		r = span(r, geom.Rect{Min: cn.At, Max: cn.At})
	}
	return r
}

// span is the smallest rectangle holding both r and s. Unlike
// Rect.Union it never drops the zero rectangle: a degenerate fragment
// or a connector at the origin is real material or a real position.
func span(r, s geom.Rect) geom.Rect {
	return geom.Rect{
		Min: geom.Pt(min(r.Min.X, s.Min.X), min(r.Min.Y, s.Min.Y)),
		Max: geom.Pt(max(r.Max.X, s.Max.X), max(r.Max.Y, s.Max.Y)),
	}
}
