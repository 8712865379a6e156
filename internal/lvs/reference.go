package lvs

import (
	"fmt"
	"sync/atomic"

	"riot/internal/castore"
	"riot/internal/core"
	"riot/internal/extract"
	"riot/internal/flatten"
	"riot/internal/geom"
	"riot/internal/seam"
)

// This file derives the reference netlist — what the composition
// declares — without ever extracting the assembled design. Each cell
// gets one memoized entry:
//
//   - a leaf entry extracts the leaf alone (flatten + solve of just
//     that cell) and keeps its devices, its connector-to-net ports and
//     its boundary material: every solved fragment within the entry's
//     seam reach of the cell's bounding box (the base contract reach,
//     deepened per seam when placed boxes overlap), tagged with the
//     net it carries;
//   - a composition entry allocates a net block per instance copy and
//     unions blocks where the declared structure connects them:
//     connector points that coincide, and boundary material that
//     touches across a sanctioned seam (leaf occurrence boxes that
//     touch — the abutment contract internal/drc also trusts).
//
// Entries are validated by a structural signature (instance
// placements, recursively), so an edit rebuilds exactly the entries
// whose cells changed: moving one instance re-stitches its composition
// but re-extracts no leaf.

// seamReach is the base abutment-contract reach, shared with the
// hierarchical extract/DRC certificate engine through internal/seam
// (see seam.Reach for the full contract). Each entry retains boundary
// material to the deepest reach any seam it participates in actually
// needs (seamDepth, computed from the overlap of the two placed
// boxes), so a deep overlap stitches exactly like a shallow one
// instead of mis-reporting its sanctioned contacts as shorts.
const seamReach = seam.Reach

// portKey identifies a connector position: connectors coincide when
// they share a point and a layer.
type portKey struct {
	x, y  int
	layer geom.Layer
}

// port is one cell connector resolved against the cell's own netlist.
type port struct {
	name  string
	at    geom.Point
	layer geom.Layer
	side  geom.Side
	net   int32 // -1 when the connector resolved to no material
}

// bfrag is one piece of boundary material: its rectangle and the
// placed bounding box of the leaf occurrence that drew it (both in
// cell-local coordinates), and the net it carries.
type bfrag struct {
	layer   geom.Layer
	r       geom.Rect
	leafBox geom.Rect
	net     int32
}

// refEntry is one cell's memoized reference derivation.
type refEntry struct {
	sig      uint64
	reach    int // boundary retention depth the entry was built with
	nets     int
	devices  []Device
	ports    []port
	portAt   map[portKey]int32 // coincidence-resolved net per connector position
	labels   map[string]int    // the cell's full label namespace, resolved
	boundary []bfrag
	occs     []refOcc // leaf occurrences in flatten walk order
	// cell is the cell the entry derives (the memo is keyed by its
	// snapshot origin); insts are the instances a composition entry was
	// stitched from
	cell  *core.Cell
	insts []*core.Instance
	err   error
}

// refOcc is one leaf occurrence inside an entry's net space: which
// cell it instantiates and where each of the cell's standalone
// (cell-local) nets landed in the entry's dense numbering. Interior
// nets stay distinct per occurrence — nothing outside a cell unions
// into material the seam contract cannot reach — which is what the
// hierarchical certificates rely on to collapse certified occurrences.
type refOcc struct {
	cell *core.Cell
	sig  uint64
	nets []int32
}

// Reference derives and memoizes reference netlists. The zero value is
// ready to use; one Reference serves any number of cells (entries are
// keyed per cell and validated against a placement signature, so
// edited compositions re-stitch while untouched cells and all leaf
// extractions are reused).
//
// A Reference belongs to one session: its memos are keyed by *Cell /
// *Instance pointer, so NetlistOccs asserts single-threaded entry
// rather than corrupt them — sessions share derivation work through
// the content-addressed store (AttachDisk), never through a Reference.
// Snapshot clones of one design cell are handled naturally: unchanged
// subtrees keep their pointers, and the memo keys entries by snapshot
// origin (Cell.Origin), so a newer clone's entry supersedes the older
// one's — along with the instance-level memos of instances the new
// clone no longer has. A long-lived session's memory is bounded by the
// design, not by its history.
type Reference struct {
	ids    map[*core.Cell]uint64
	lastID uint64
	memo   map[*core.Cell]*refEntry
	conns  map[*core.Instance]cachedConns
	parts  map[*core.Instance]cachedParts

	// busy asserts single-session use of the pointer-keyed memos; a
	// plain int32 with atomic access keeps the struct copyable.
	busy int32

	// optional persistent second level (AttachDisk): leaf entries
	// missing in memory are looked up by content signature before the
	// leaf is extracted
	disk   castore.Blob
	signer *castore.Signer
}

// instKey is the placement snapshot instance-level caches are valid
// for (mirrors the flatten cache's contract: mutations inside the
// defining cell swap the pointer or go through Editor.Invalidate).
type instKey struct {
	cell           *core.Cell
	sig            uint64
	tr             geom.Transform
	nx, ny, sx, sy int
}

func (rf *Reference) keyOf(in *core.Instance) instKey {
	return instKey{cell: in.Cell, sig: rf.sigOf(in.Cell), tr: in.Tr,
		nx: in.Nx, ny: in.Ny, sx: in.Sx, sy: in.Sy}
}

// cachedConns memoizes an instance's resolved connector list for the
// label pass; it only changes when the placement does.
type cachedConns struct {
	key  instKey
	list []core.InstConn
}

// instConns is the memoized connector provider shared by the label
// pass and the composition-connector assembly.
func (rf *Reference) instConns(in *core.Instance) []core.InstConn {
	key := rf.keyOf(in)
	if ent, ok := rf.conns[in]; ok && ent.key == key {
		return ent.list
	}
	list := in.Connectors()
	if rf.conns == nil {
		rf.conns = map[*core.Instance]cachedConns{}
	}
	rf.conns[in] = cachedConns{key: key, list: list}
	return list
}

// cachedParts memoizes an instance's transformed stitch parts — every
// copy's bounding box, connector positions and boundary material, with
// copy-relative net ids. A one-instance edit re-transforms one entry;
// the other thousand reuse theirs. reach records the sub-entry
// boundary retention the parts were derived from: when a neighbor's
// overlap deepens the instance's required reach, the parts re-derive.
type cachedParts struct {
	key    instKey
	reach  int
	copies []copyParts
}

// copyParts is one array copy's stitch contribution in parent
// coordinates; nets are relative to the copy's block base.
type copyParts struct {
	bbox     geom.Rect
	ports    []portReg
	boundary []bfrag
}

// portReg is one valid connector position for coincidence stitching.
type portReg struct {
	key portKey
	net int32 // copy-relative
}

// instParts returns the instance's transformed stitch parts, cached by
// placement and the sub-entry's boundary reach.
func (rf *Reference) instParts(in *core.Instance, sub *refEntry) []copyParts {
	key := rf.keyOf(in)
	if ent, ok := rf.parts[in]; ok && ent.key == key && ent.reach == sub.reach {
		return ent.copies
	}
	var copies []copyParts
	for i := 0; i < in.Nx; i++ {
		for j := 0; j < in.Ny; j++ {
			tr := in.CopyTransform(i, j)
			cp := copyParts{bbox: tr.ApplyRect(in.Cell.BBox())}
			for _, p := range sub.ports {
				if p.net < 0 {
					continue
				}
				at := tr.Apply(p.at)
				cp.ports = append(cp.ports, portReg{key: portKey{at.X, at.Y, p.layer}, net: p.net})
			}
			cp.boundary = make([]bfrag, len(sub.boundary))
			for k, bf := range sub.boundary {
				cp.boundary[k] = bfrag{
					layer:   bf.layer,
					r:       tr.ApplyRect(bf.r),
					leafBox: tr.ApplyRect(bf.leafBox),
					net:     bf.net,
				}
			}
			copies = append(copies, cp)
		}
	}
	if rf.parts == nil {
		rf.parts = map[*core.Instance]cachedParts{}
	}
	rf.parts[in] = cachedParts{key: key, reach: sub.reach, copies: copies}
	return copies
}

// Netlist derives the reference netlist of a cell. declared lists
// connection records to honor on top of the cell's structure — the
// editing session's retained Connection list; nil is valid and means
// "structure only" (cells loaded from files carry no records).
func (rf *Reference) Netlist(c *core.Cell, declared []core.Connection) (*Netlist, error) {
	nl, _, err := rf.NetlistOccs(c, declared)
	return nl, err
}

// NetlistOccs is Netlist plus the leaf-occurrence map: for every leaf
// occurrence of the flattened design (in flatten walk order), the cell
// it instantiates and where each of that cell's standalone nets landed
// in the returned netlist's numbering. The hierarchical-certificate
// comparison uses the map to collapse repeated, already-matched cells.
func (rf *Reference) NetlistOccs(c *core.Cell, declared []core.Connection) (*Netlist, []refOcc, error) {
	if !atomic.CompareAndSwapInt32(&rf.busy, 0, 1) {
		return nil, nil, fmt.Errorf("lvs: Reference entered concurrently (a Reference serves one session; share work across sessions through the content-addressed store)")
	}
	defer atomic.StoreInt32(&rf.busy, 0)
	e := rf.entry(c, seamReach)
	if e.err != nil {
		return nil, nil, e.err
	}
	if len(declared) == 0 {
		// nothing to union on top: the entry IS the netlist. Devices,
		// labels and occurrence maps are shared read-only with the memo.
		return &Netlist{NetCount: e.nets, Devices: e.devices, Labels: e.labels}, e.occs, nil
	}

	// apply the declared records on top of the entry's net space, then
	// compress to the dense netlist
	uf := geom.NewUnionFind(e.nets)
	for _, conn := range declared {
		rf.declareUnion(uf, e, conn)
	}
	remap := make([]int32, e.nets)
	for i := range remap {
		remap[i] = -1
	}
	nets := 0
	renum := func(n int32) int {
		root := uf.Find(int(n))
		if remap[root] < 0 {
			remap[root] = int32(nets)
			nets++
		}
		return int(remap[root])
	}

	out := &Netlist{Labels: make(map[string]int, len(e.labels))}
	out.Devices = make([]Device, len(e.devices))
	for i, d := range e.devices {
		out.Devices[i] = Device{Kind: d.Kind, Gate: renum(int32(d.Gate)), A: renum(int32(d.A)), B: renum(int32(d.B))}
	}
	for name, n := range e.labels {
		out.Labels[name] = renum(int32(n))
	}
	// nets carrying neither devices nor labels still count: walk the
	// whole space so NetCount matches the layout side's convention
	for n := 0; n < e.nets; n++ {
		renum(int32(n))
	}
	out.NetCount = nets
	// occurrence maps re-expressed in the declared-union numbering
	occs := make([]refOcc, len(e.occs))
	for i, oc := range e.occs {
		m := make([]int32, len(oc.nets))
		for k, n := range oc.nets {
			m[k] = int32(renum(n))
		}
		occs[i] = refOcc{cell: oc.cell, sig: oc.sig, nets: m}
	}
	return out, occs, nil
}

// resolveLabels fills an entry's label map — the same namespace
// flatten labels the layout with. For compositions, the instance
// connectors (every exported "inst.CONN" name is also an instance
// label at the same point) plus the explicit extras cover it; later
// names overwrite earlier ones, as flatten's do.
func (rf *Reference) resolveLabels(c *core.Cell, e *refEntry) {
	e.labels = make(map[string]int, len(e.portAt))
	label := func(name string, at geom.Point, layer geom.Layer) {
		if n, ok := e.portAt[portKey{at.X, at.Y, layer}]; ok && n >= 0 {
			e.labels[name] = int(n)
		}
	}
	for _, in := range c.Instances {
		for _, ic := range rf.instConns(in) {
			label(in.Name+"."+ic.Name, ic.At, ic.Layer)
		}
	}
	for _, cn := range c.ExtraConnectors {
		label(cn.Name, cn.At, cn.Layer)
	}
}

// declareUnion applies one declared connection record: both connector
// positions resolve through the port map and their nets union. Records
// whose endpoints no longer resolve (a renamed connector, material
// removed from under a point) are skipped — there is no net to tie.
func (rf *Reference) declareUnion(uf *geom.UnionFind, e *refEntry, conn core.Connection) {
	fc, err := conn.From.Connector(conn.FromConn)
	if err != nil {
		return
	}
	tc, err := conn.To.Connector(conn.ToConn)
	if err != nil {
		return
	}
	fn, okF := e.portAt[portKey{fc.At.X, fc.At.Y, fc.Layer}]
	tn, okT := e.portAt[portKey{tc.At.X, tc.At.Y, tc.Layer}]
	if okF && okT && fn >= 0 && tn >= 0 {
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
// identity (leaf payloads are immutable under the editor contract —
// STRETCH swaps the cell pointer), for compositions a hash of every
// instance's defining-cell signature and placement. An entry whose
// signature still matches is current.
func (rf *Reference) sigOf(c *core.Cell) uint64 {
	h := fnvInit()
	h = fnvMix(h, rf.cellID(c))
	if c.Kind != core.Composition {
		return h
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

func pack32(a, b int) uint64 { return seam.Pack32(a, b) }

// entry returns the cell's current derivation, rebuilding it when the
// structural signature says the memoized one is stale or when a seam
// needs boundary material deeper than the memoized entry retained.
// Entries only ever grow their reach (the deepest any parent asked
// for), so alternating parents cannot thrash the memo.
func (rf *Reference) entry(c *core.Cell, minReach int) *refEntry {
	sig := rf.sigOf(c)
	old := rf.memo[c.Origin()]
	if old != nil {
		if old.sig == sig && old.reach >= minReach {
			return old
		}
		if old.reach > minReach {
			minReach = old.reach // never shrink: alternating parents must not thrash
		}
	}
	var e *refEntry
	if c.Kind == core.Composition {
		e = rf.stitch(c, minReach)
	} else {
		e = rf.leafEntry(c, minReach)
	}
	e.sig, e.cell = sig, c
	// a disk-loaded leaf entry may retain boundary material deeper than
	// asked; record the depth it actually has (never less than asked)
	if e.reach < minReach {
		e.reach = minReach
	}
	if rf.memo == nil {
		rf.memo = map[*core.Cell]*refEntry{}
	}
	rf.memo[c.Origin()] = e
	if old != nil {
		rf.supersede(old, e)
	}
	return e
}

// supersede retires what a new entry replaced: a superseded clone's
// cell id, and the instance-level memos of every instance the old
// entry was stitched from that the new one no longer has.
func (rf *Reference) supersede(old, e *refEntry) {
	if old.cell != e.cell {
		delete(rf.ids, old.cell)
	}
	kept := make(map[*core.Instance]bool, len(e.insts))
	for _, in := range e.insts {
		kept[in] = true
	}
	for _, in := range old.insts {
		if !kept[in] {
			delete(rf.conns, in)
			delete(rf.parts, in)
		}
	}
}

// seamDepth bounds how deep sanctioned seam contact against bv can
// reach into bu; see seam.Depth for the full contract.
func seamDepth(bu, bv geom.Rect) int { return seam.Depth(bu, bv) }

// leafEntry extracts a leaf cell alone and packages its netlist,
// ports and boundary material within reach of its bounding box. With a
// persistent store attached, the extraction is skipped when the store
// holds an entry for the same cell content at sufficient reach, and
// fresh derivations are written back.
func (rf *Reference) leafEntry(c *core.Cell, reach int) *refEntry {
	if e := rf.diskLoadLeaf(c, reach); e != nil {
		return e
	}
	fr, err := flatten.Cell(c, flatten.Options{})
	if err != nil {
		return &refEntry{err: fmt.Errorf("lvs: leaf %s: %w", c.Name, err)}
	}
	ckt, frags, err := extract.SolveNets(fr)
	if err != nil {
		return &refEntry{err: fmt.Errorf("lvs: leaf %s: %w", c.Name, err)}
	}
	e := &refEntry{nets: ckt.NetCount, portAt: map[portKey]int32{}}
	e.devices = make([]Device, len(ckt.Transistors))
	for i, t := range ckt.Transistors {
		e.devices[i] = Device{Kind: t.Kind, Gate: t.Gate, A: t.A, B: t.B}
	}
	for _, cn := range c.Connectors() {
		net := int32(-1)
		if n, ok := ckt.NetOf[cn.Name]; ok {
			net = int32(n)
		}
		e.ports = append(e.ports, port{name: cn.Name, at: cn.At, layer: cn.Layer, side: cn.Side, net: net})
		key := portKey{cn.At.X, cn.At.Y, cn.Layer}
		if _, dup := e.portAt[key]; !dup || net >= 0 {
			e.portAt[key] = net
		}
	}
	inner := c.BBox().Inset(reach)
	for _, f := range frags {
		if inner.ContainsRect(f.R) {
			continue
		}
		e.boundary = append(e.boundary, bfrag{layer: f.Layer, r: f.R, leafBox: c.BBox(), net: f.Net})
	}
	e.labels = ckt.NetOf
	// the leaf is its own single occurrence; its standalone nets map
	// identically
	ident := make([]int32, e.nets)
	for n := range ident {
		ident[n] = int32(n)
	}
	e.occs = []refOcc{{cell: c, sig: rf.sigOf(c), nets: ident}}
	e.reach = reach
	rf.diskStoreLeaf(c, e)
	return e
}

// copyRef is one instance copy during a stitch: its bounding box, its
// boundary material (parent coordinates, copy-relative nets) and the
// copy's net block base.
type copyRef struct {
	bbox     geom.Rect
	boundary []bfrag
	base     int32
}

// stitch derives a composition's entry from its instances' entries:
// per-copy net blocks unioned at coincident connector points and
// across sanctioned abutment seams. reach is the boundary retention
// depth requested of this entry; each child entry is additionally
// asked for the deepest reach its own seams need (seamDepth over the
// touching copy-box pairs), so ABUT OVERLAPs deeper than the base
// contract stitch correctly.
func (rf *Reference) stitch(c *core.Cell, reach int) *refEntry {
	e := &refEntry{portAt: map[portKey]int32{}, insts: append([]*core.Instance(nil), c.Instances...)}

	// pass 0: every copy's placed box, from placement alone, to size
	// each instance's required seam reach before its entry is built
	type cbox struct {
		box  geom.Rect
		inst int
	}
	var cboxes []cbox
	for ii, in := range c.Instances {
		for i := 0; i < in.Nx; i++ {
			for j := 0; j < in.Ny; j++ {
				cboxes = append(cboxes, cbox{in.CopyTransform(i, j).ApplyRect(in.Cell.BBox()), ii})
			}
		}
	}
	need := make([]int, len(c.Instances))
	for ii := range need {
		need[ii] = max(seamReach, reach)
	}
	if len(cboxes) > 1 {
		boxes := make([]geom.Rect, len(cboxes))
		for i, cb := range cboxes {
			boxes[i] = cb.box
		}
		ix := geom.NewIndexFrom(boxes)
		ix.Build()
		for u := range cboxes {
			ix.QueryRect(cboxes[u].box, func(v int) bool {
				if v <= u {
					return true
				}
				bu, bv := cboxes[u].box, cboxes[v].box
				if du := seamDepth(bu, bv); du > need[cboxes[u].inst] {
					need[cboxes[u].inst] = du
				}
				if dv := seamDepth(bv, bu); dv > need[cboxes[v].inst] {
					need[cboxes[v].inst] = dv
				}
				return true
			})
		}
	}

	regs := map[portKey]int32{}
	var copies []copyRef
	var unions [][2]int32
	var occs []refOcc // entry occurrences, nets still in block space

	total := 0
	for ii, in := range c.Instances {
		sub := rf.entry(in.Cell, need[ii])
		if sub.err != nil {
			e.err = sub.err
			return e
		}
		for _, cp := range rf.instParts(in, sub) {
			base := int32(total)
			total += sub.nets
			for _, d := range sub.devices {
				e.devices = append(e.devices, Device{
					Kind: d.Kind,
					Gate: int(base) + d.Gate,
					A:    int(base) + d.A,
					B:    int(base) + d.B,
				})
			}
			// register connector positions for coincidence unions
			for _, p := range cp.ports {
				net := base + p.net
				if first, ok := regs[p.key]; ok {
					unions = append(unions, [2]int32{first, net})
				} else {
					regs[p.key] = net
				}
			}
			// the copy's leaf occurrences, offset into this block —
			// flatten walk order: instances in declaration order, copies
			// x-major, sub-occurrences recursively
			for _, oc := range sub.occs {
				m := make([]int32, len(oc.nets))
				for k, n := range oc.nets {
					m[k] = base + n
				}
				occs = append(occs, refOcc{cell: oc.cell, sig: oc.sig, nets: m})
			}
			copies = append(copies, copyRef{bbox: cp.bbox, boundary: cp.boundary, base: base})
		}
	}

	uf := geom.NewUnionFind(total)
	for _, u := range unions {
		uf.Union(int(u[0]), int(u[1]))
	}
	seamUnions(copies, uf)

	// compress the block space to dense nets
	remap := make([]int32, total)
	for i := range remap {
		remap[i] = -1
	}
	nets := 0
	renum := func(n int32) int32 {
		root := uf.Find(int(n))
		if remap[root] < 0 {
			remap[root] = int32(nets)
			nets++
		}
		return remap[root]
	}
	for i, d := range e.devices {
		e.devices[i] = Device{Kind: d.Kind, Gate: int(renum(int32(d.Gate))), A: int(renum(int32(d.A))), B: int(renum(int32(d.B)))}
	}
	// the coincidence map re-expressed in dense nets; positions with no
	// valid net stay absent (nothing to tie there)
	for key, first := range regs {
		e.portAt[key] = renum(first)
	}
	for n := 0; n < total; n++ {
		renum(int32(n))
	}
	e.nets = nets

	// occurrence maps in the dense numbering
	for oi := range occs {
		m := occs[oi].nets
		for k, n := range m {
			m[k] = renum(n)
		}
	}
	e.occs = occs

	rf.resolveLabels(c, e)

	// the composition's own ports, for stitching one level up
	for _, cn := range core.CompositionConnectors(c, rf.instConns) {
		net := int32(-1)
		if n, ok := e.portAt[portKey{cn.At.X, cn.At.Y, cn.Layer}]; ok {
			net = n
		}
		e.ports = append(e.ports, port{name: cn.Name, at: cn.At, layer: cn.Layer, side: cn.Side, net: net})
	}

	// the composition's boundary: every copy's boundary material still
	// within the requested reach of the composition's box
	inner := c.BBox().Inset(reach)
	for _, cr := range copies {
		for _, bf := range cr.boundary {
			if inner.ContainsRect(bf.r) {
				continue
			}
			bf.net = renum(cr.base + bf.net)
			e.boundary = append(e.boundary, bf)
		}
	}
	return e
}

// seamUnions applies the abutment contract: for every pair of copies
// whose bounding boxes touch, boundary material on the same layer that
// touches across the seam — and whose drawing leaf occurrences' boxes
// touch, the same provenance test the DRC trusts — carries one net.
func seamUnions(copies []copyRef, uf *geom.UnionFind) {
	if len(copies) < 2 {
		return
	}
	boxes := make([]geom.Rect, len(copies))
	for i, cr := range copies {
		boxes[i] = cr.bbox
	}
	ix := geom.NewIndexFrom(boxes)
	ix.Build()
	var mine, theirs []bfrag
	for u := range copies {
		ix.QueryRect(copies[u].bbox, func(v int) bool {
			if v <= u {
				return true
			}
			bu, bv := copies[u].bbox, copies[v].bbox
			// the seam window: the (possibly degenerate) box
			// intersection, inflated by the contract's reach — every
			// cross-copy contact point lies inside it
			sx0, sy0 := max(bu.Min.X, bv.Min.X), max(bu.Min.Y, bv.Min.Y)
			sx1, sy1 := min(bu.Max.X, bv.Max.X), min(bu.Max.Y, bv.Max.Y)
			if sx0 > sx1 || sy0 > sy1 {
				return true
			}
			win := geom.R(sx0-seamReach, sy0-seamReach, sx1+seamReach, sy1+seamReach)
			// per-pair trust depth: only material within this seam's own
			// reach of its copy's box participates. The filter makes the
			// union set a function of the current placement alone —
			// entries retain material to the deepest reach they have
			// ever needed, and deeper-than-needed retention must not
			// union more than a freshly derived entry would.
			innerU := bu.Inset(seamDepth(bu, bv))
			innerV := bv.Inset(seamDepth(bv, bu))
			mine = mine[:0]
			for _, bf := range copies[u].boundary {
				if bf.r.Touches(win) && !innerU.ContainsRect(bf.r) {
					mine = append(mine, bf)
				}
			}
			if len(mine) == 0 {
				return true
			}
			theirs = theirs[:0]
			for _, bf := range copies[v].boundary {
				if bf.r.Touches(win) && !innerV.ContainsRect(bf.r) {
					theirs = append(theirs, bf)
				}
			}
			for _, fu := range mine {
				for _, fv := range theirs {
					if fu.layer == fv.layer && fu.leafBox.Touches(fv.leafBox) && fu.r.Touches(fv.r) {
						uf.Union(int(copies[u].base+fu.net), int(copies[v].base+fv.net))
					}
				}
			}
			return true
		})
	}
}

// fnv-1a, the hash behind signatures and refinement colors (shared
// with the hierarchical certificate engine through internal/seam).
func fnvInit() uint64 { return seam.FNVInit() }

func fnvMix(h, v uint64) uint64 { return seam.FNVMix(h, v) }
