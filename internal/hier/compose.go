package hier

import (
	"sort"
	"strconv"

	"riot/internal/core"
	"riot/internal/drc"
	"riot/internal/faultinject"
	"riot/internal/geom"
	"riot/internal/obs"
	"riot/internal/rules"
)

// genState is one exact composition: the placed occurrence list, the
// composed net partition and numbering, and the composed violation
// set. Everything downstream (materialization, labels) reads it. A
// state is immutable once composed, so a Result handed out earlier
// stays valid whatever later generations carry from it.
type genState struct {
	retained
	// matIx indexes the occurrences' material boxes; a fast-path
	// circuit has none: lat is its array, whose copy (i, j) is
	// occurrence i·Ny+j, and latBox the material box in the cell's frame.
	matIx  *geom.Index
	lat    *core.Instance
	latBox geom.Rect

	netOf    []int32 // dense net of each (occ netBase + local net) node
	netCount int

	violations []drc.Violation
	// spacingCands counts candidate spacing pairs before the component
	// exemption — the fast path requires zero on its lattice.
	spacingCands int
}

// retained is the part of a composition the next generation of the
// same frozen top carries (carry): the walked occurrences, the pairs
// and the width windows. A published copy shares the state's slices
// and is never written; the index, the net numbering, the residues and
// the violations are not part of it, because every run recomputes
// them.
type retained struct {
	occs []placed
	// top is the frozen top cell the occurrences were walked from (nil
	// for the fast path's lattice); first[k] is where its instance
	// k's occurrence block starts, first[len] = len(occs).
	top    *core.Cell
	first  []int
	layers []geom.Layer
	pairs  []pairRef
	// wins are the width interaction windows with residue pieces, per
	// layer (indexed like layers).
	wins [][]window
}

type pairRef struct {
	u, v int32
	t    *template
}

// window is one pair's width-recomputation window on one layer with
// residue pieces: rel holds them in doubled coordinates relative to
// occurrence u (a windowPieces memo entry, shared and never written).
// A window without pieces is not kept: only its rectangle matters,
// and that is a function of the pair.
type window struct {
	u, v int32
	rel  []geom.Rect
}

// carry is what one run takes over from a retained composition of the
// same frozen top: where each surviving occurrence sits now, and the
// material boxes the edit added or removed. A nil carry composes cold.
type carry struct {
	prev  *retained
	remap []int32 // prev occurrence -> this run's, -1 when removed
	back  []int32 // this run's occurrence -> prev's, -1 when added
	// changed holds the old material box of every removed occurrence
	// and the new one of every added occurrence.
	changed []geom.Rect
}

// added reports whether occurrence i is new this run. Cold, every
// occurrence is.
func (c *carry) added(i int) bool { return c == nil || c.back[i] < 0 }

// diff maps a retained composition onto this run's occurrence list by
// the top's *Instance pointers: a pointer both tops hold keeps its
// occurrence block (a frozen instance never changes, and a leaf
// mutation resets the retained state along with the memos), so only
// the blocks of added and removed instances change.
func diff(prev *retained, top *core.Cell, occs []placed, first []int) *carry {
	c := &carry{prev: prev, remap: make([]int32, len(prev.occs)), back: make([]int32, len(occs))}
	for i := range c.remap {
		c.remap[i] = -1
	}
	for i := range c.back {
		c.back[i] = -1
	}
	at := make(map[*core.Instance]int, len(prev.top.Instances))
	for k, in := range prev.top.Instances {
		at[in] = k
	}
	for k, in := range top.Instances {
		ko, ok := at[in]
		if !ok {
			continue
		}
		lo, olo := first[k], prev.first[ko]
		for x := 0; x < first[k+1]-lo; x++ {
			c.remap[olo+x] = int32(lo + x)
			c.back[lo+x] = int32(olo + x)
		}
	}
	for i, n := range c.remap {
		if n < 0 {
			c.changed = append(c.changed, prev.occs[i].mat)
		}
	}
	for i, o := range c.back {
		if o < 0 {
			c.changed = append(c.changed, occs[i].mat)
		}
	}
	return c
}

func (st *genState) deviceCount() int {
	n := 0
	for i := range st.occs {
		n += len(st.occs[i].cert.X.Devices)
	}
	return n
}

func neg(p geom.Point) geom.Point { return geom.Pt(-p.X, -p.Y) }

// compose runs the exact composition over a walked occurrence list —
// connectivity, then the composed DRC verdict — under one "compose"
// span, carrying what c allows from a retained composition.
func (e *Engine) compose(st *genState, c *carry) error {
	csp := e.Trace.Begin("compose")
	defer csp.End()
	if csp != nil {
		csp.Note("placements", strconv.Itoa(len(st.occs)))
	}
	if err := e.connect(st, c); err != nil {
		return err
	}
	e.check(st, c, csp)
	return nil
}

// connect composes the connectivity half: the interacting pairs
// (discover), memoized pair templates, a global union-find over local
// nets, context resolution for the certificates' deferred joins, and
// the dense net renumbering. It is all a circuit needs; the DRC half
// (check) reads the pairs it records. Only pair discovery carries; the
// union-find, the joins and the renumbering rerun over every pair, so
// a renumbering far from an edit stays exact.
//
// A pend certificate or a fragmentation-poison pair is a composition
// the certificates cannot express: connect declines the run, always
// with a *Decline, and the caller runs the scratch flat oracle.
func (e *Engine) connect(st *genState, c *carry) error {
	total, err := e.number(st)
	if err != nil {
		return err
	}
	occs := st.occs
	if c != nil {
		st.layers = c.prev.layers
	} else {
		st.layers = layersOf(occs)
	}

	ix := geom.NewIndex()
	for i := range occs {
		ix.Insert(occs[i].mat)
	}
	ix.Build()
	st.matIx = ix

	if err := e.discover(st, c); err != nil {
		return err
	}
	uf := geom.NewUnionFind(total)
	for _, pr := range st.pairs {
		st.unite(uf, pr.u, pr.v, pr.t)
	}
	st.link(uf)
	return nil
}

// number opens a connectivity compose: the compose-budget fault, then
// a pend check and a net base per occurrence. It returns the node
// count.
func (e *Engine) number(st *genState) (int, error) {
	if e.Faults.Hit(faultinject.ComposeBudget, "") {
		return 0, &Decline{Cond: CondComposeBudget, Placement: -1}
	}
	occs := st.occs
	total := 0
	for i := range occs {
		if occs[i].cert.X.Pend || e.Faults.Hit(faultinject.CertPend, occs[i].cert.Cell.Name) {
			return 0, &Decline{Cond: CondPend, Cell: occs[i].cert.Cell.Name, Placement: i}
		}
		occs[i].netBase = int32(total)
		total += occs[i].cert.X.NetCount
	}
	return total, nil
}

// unite applies one pair's template unions.
func (st *genState) unite(uf *geom.UnionFind, u, v int32, t *template) {
	ub, vb := st.occs[u].netBase, st.occs[v].netBase
	for _, p := range t.unions {
		uf.Union(int(ub+p[0]), int(vb+p[1]))
	}
}

// link closes a connectivity compose: the deferred joins, then the
// dense renumbering of the total nodes.
func (st *genState) link(uf *geom.UnionFind) {
	// deferred joins, resolved in placement context. Both-sides-found
	// joins union; others drop, matching the flat solver.
	occs := st.occs
	for ui := range occs {
		u := &occs[ui]
		for _, j := range u.cert.X.Joins {
			a := st.nodeAt(j.At[0].Add(u.d), j.Layers[0])
			b := st.nodeAt(j.At[1].Add(u.d), j.Layers[1])
			if a >= 0 && b >= 0 {
				uf.Union(int(a), int(b))
			}
		}
	}

	// Dense renumbering: first appearance in global fragment order. The
	// flat solver numbers by first fragment over its occurrence-major
	// fragment list; numbering the nodes in order — occurrences in
	// global order, each over its local net ids (themselves
	// first-fragment-ordered) — visits every class exactly at its first
	// flat fragment, so the two orders agree.
	st.netOf, st.netCount = uf.Dense()
}

// discover records the run's interacting pairs in (u, v) order, u < v.
// A pair of two surviving occurrences carries from the retained
// composition with its template: pair existence is a function of the
// two material boxes and the layer set's reach, all unchanged. Every
// pair with an added occurrence is found by one spatial query from
// that occurrence and gets its template here. Poison and the
// template-poison fault are checked pair by pair in (u, v) order,
// carried pairs included, so a decline names the placement a cold
// run would.
func (e *Engine) discover(st *genState, c *carry) error {
	occs := st.occs
	reach := pairReach(st.layers)
	var fresh []pairRef
	var cand []int
	for u := range occs {
		if !c.added(u) {
			continue
		}
		cand = cand[:0]
		st.matIx.QueryRect(occs[u].mat.Inset(-reach), func(v int) bool {
			if v > u || (v < u && !c.added(v)) {
				cand = append(cand, v)
			}
			return true
		})
		sort.Ints(cand)
		for _, v := range cand {
			fresh = append(fresh, pairRef{u: int32(min(u, v)), v: int32(max(u, v))})
		}
	}
	sortPairs(fresh)
	e.stats.PairsComposed += len(fresh)

	ps := fresh
	if c != nil {
		ps = make([]pairRef, 0, len(c.prev.pairs)+len(fresh))
		for _, pr := range c.prev.pairs {
			u, v := c.remap[pr.u], c.remap[pr.v]
			if u < 0 || v < 0 {
				continue
			}
			if u > v {
				u, v = v, u
				pr.t = e.template(occs[u].cert, occs[v].cert, occs[v].d.Sub(occs[u].d))
			}
			ps = append(ps, pairRef{u, v, pr.t})
		}
		sortPairs(ps)
		// merge the fresh pairs in from the back, in place
		i, n := len(ps)-1, len(ps)+len(fresh)
		ps = ps[:n]
		for k, j := n-1, len(fresh)-1; j >= 0; k-- {
			if i >= 0 && pairLess(fresh[j], ps[i]) {
				ps[k], i = ps[i], i-1
			} else {
				ps[k], j = fresh[j], j-1
			}
		}
	}

	for k := range ps {
		pr := &ps[k]
		if pr.t == nil {
			pr.t = e.template(occs[pr.u].cert, occs[pr.v].cert, occs[pr.v].d.Sub(occs[pr.u].d))
		}
		if err := e.poisoned(st, pr.u, pr.v, pr.t); err != nil {
			return err
		}
	}
	st.pairs = ps
	return nil
}

// poisoned declines a poison pair (or one the template-poison fault
// hits), naming its first placement.
func (e *Engine) poisoned(st *genState, u, v int32, t *template) error {
	poison := t.poison
	if !poison && e.Faults != nil {
		poison = e.Faults.Hit(faultinject.TemplatePoison, strconv.Itoa(int(u))) ||
			e.Faults.Hit(faultinject.TemplatePoison, strconv.Itoa(int(v)))
	}
	if poison {
		return &Decline{Cond: CondPoison, Cell: st.occs[u].cert.Cell.Name, Placement: int(u)}
	}
	return nil
}

func pairLess(a, b pairRef) bool { return a.u < b.u || (a.u == b.u && a.v < b.v) }

// sortPairs puts pairs in (u, v) order; the lists discover builds
// usually are already.
func sortPairs(ps []pairRef) {
	if !sort.SliceIsSorted(ps, func(i, j int) bool { return pairLess(ps[i], ps[j]) }) {
		sort.Slice(ps, func(i, j int) bool { return pairLess(ps[i], ps[j]) })
	}
}

// nodeAt finds the composed net NODE at a point under a contact-join
// layer constraint (LayerNone: any layer below the cut).
func (st *genState) nodeAt(p geom.Point, l geom.Layer) int32 {
	return st.locate(p, l, l == geom.LayerNone)
}

// locate finds the composed net NODE at a point on layer l, or — with
// belowCut — on any layer below the cut. On one layer any occupant's
// material works (all same-layer fragments containing one point touch,
// so they share a post-union net); below the cut the LOWEST occurrence
// with eligible material decides — the flat fragment list is
// occurrence-major, so that reproduces the flat locator's
// lowest-global-fragment pick.
func (st *genState) locate(p geom.Point, l geom.Layer, belowCut bool) int32 {
	for _, id := range st.occupants(p) {
		o := &st.occs[id]
		lp := p.Sub(o.d)
		var n int32
		if belowCut {
			n = o.cert.X.FindAtNone(lp)
		} else {
			n = o.cert.X.FindOnLayer(lp, l)
		}
		if n >= 0 {
			return o.netBase + n
		}
	}
	return -1
}

// occupants returns the occurrences whose material box contains p, in
// ascending order. A lattice state divides on the array's lattice,
// which yields the index query's candidates in the same order.
func (st *genState) occupants(p geom.Point) []int {
	var occ []int
	if in := st.lat; in != nil {
		in.CopiesTouching(st.latBox, geom.Rect{Min: p, Max: p}, func(i, j int) { occ = append(occ, i*in.Ny+j) })
		return occ
	}
	st.matIx.QueryPoint(p, func(id int) bool {
		occ = append(occ, id)
		return true
	})
	sort.Ints(occ)
	return occ
}

// check composes the DRC half — width residues, cross-placement
// spacing, contact surround — into the run's violation set, recording
// its stages as children of sp. Only width work carries; spacing,
// surround and the final merges rerun over the whole design.
func (e *Engine) check(st *genState, c *carry, sp *obs.Span) {
	wsp := sp.Child("width")
	e.composeWidth(st, c)
	wsp.End()
	ssp := sp.Child("spacing")
	e.composeSpacing(st)
	ssp.End()
	usp := sp.Child("surround")
	e.composeSurround(st)
	usp.End()
	st.violations = drc.FinishViolations(st.violations)
}

// composeWidth assembles the global width residues per layer: each
// certificate's residues hold verbatim outside the pair interaction
// windows; inside a window the residues recompute from every
// occupant's material, clipped two interaction radii beyond the window
// so clipping artifacts fall outside it. MergeRegion canonicalizes, so
// the slabs — and with them the violations — equal a flat run's.
//
// With a carry, a surviving pair's window keeps its pieces unless its
// clip touches a changed material box (its occupant set may differ).
// Every occurrence's residues minus its windows and the per-layer merge
// rerun over everything.
func (e *Engine) composeWidth(st *genState, c *carry) {
	st.wins = make([][]window, len(st.layers))
	stale := c.staleWindows(st)
	for li, l := range st.layers {
		minW := rules.Of(l).MinWidth * rules.Lambda
		if minW <= 0 {
			continue
		}
		rho := rhoOf(l)
		var wins []window
		if c != nil {
			for _, w := range c.prev.wins[li] {
				if u, v := c.remap[w.u], c.remap[w.v]; u >= 0 && v >= 0 && !stale(u, v, rho) {
					wins = append(wins, window{u, v, w.rel})
				}
			}
		}
		for _, pr := range st.pairs {
			if !c.added(int(pr.u)) && !c.added(int(pr.v)) && !stale(pr.u, pr.v, rho) || !pr.t.widthNear[l] {
				continue
			}
			win, clip := st.window(pr.u, pr.v, rho)
			if win.Empty() {
				continue
			}
			if rel := e.windowPieces(st, l, minW, win, clip, pr.u); len(rel) > 0 {
				wins = append(wins, window{pr.u, pr.v, rel})
			}
		}
		st.wins[li] = wins

		var pieces []geom.Rect
		for _, w := range wins {
			d := st.occs[w.u].d
			du2 := geom.Pt(2*d.X, 2*d.Y)
			for _, r := range w.rel {
				pieces = append(pieces, r.Translate(du2))
			}
		}
		for _, r := range drc.MergeRegion(append(pieces, e.residues(st, li, rho)...)) {
			st.violations = append(st.violations, drc.WidthViolationFrom(l, r, minW))
		}
	}
}

// window returns the width window of the pair (u, v) on a layer of
// interaction radius rho, and the clip its occupants' material is read
// through (two radii beyond it).
func (st *genState) window(u, v int32, rho int) (win, clip geom.Rect) {
	win = st.occs[u].mat.Inset(-rho).Intersect(st.occs[v].mat.Inset(-rho))
	return win, win.Inset(-2 * rho)
}

// staleWindows returns the test for a surviving pair's window on a
// layer of radius rho: stale when its clip touches a changed material
// box, the occupant query's predicate. A clip lies within the largest
// clip reach of both its occurrences, so one index query per changed
// box marks the occurrences that can own a stale window, and every
// other window passes on two slice reads. Cold, nothing is stale:
// every window is fresh.
func (c *carry) staleWindows(st *genState) func(u, v int32, rho int) bool {
	if c == nil {
		return func(int32, int32, int) bool { return false }
	}
	reach := 0
	for _, l := range st.layers {
		reach = max(reach, 3*rhoOf(l))
	}
	near := make([]bool, len(st.occs))
	boxes := geom.NewIndex()
	for _, b := range c.changed {
		boxes.Insert(b)
		st.matIx.QueryRect(b.Inset(-reach), func(i int) bool {
			near[i] = true
			return true
		})
	}
	boxes.Build()
	return func(u, v int32, rho int) bool {
		if !near[u] || !near[v] {
			return false
		}
		_, clip := st.window(u, v, rho)
		hit := false
		boxes.QueryRect(clip, func(int) bool {
			hit = true
			return false
		})
		return hit
	}
}

// residues composes one layer's per-occurrence residues minus their
// windows. Any residue point whose verdict could change under
// composition has foreign material within the interaction radius,
// which puts it inside one of its occurrence's windows — subtracting
// them (the windows' globally computed pieces are merged back in) is
// exact.
func (e *Engine) residues(st *genState, li, rho int) []geom.Rect {
	l := st.layers[li]
	hasResid := false
	for i := range st.occs {
		if len(st.occs[i].cert.D.Resid[l]) > 0 {
			hasResid = true
			break
		}
	}
	if !hasResid {
		return nil
	}
	winOf := map[int32][]geom.Rect{}
	for _, pr := range st.pairs {
		if !pr.t.widthNear[l] {
			continue
		}
		win, _ := st.window(pr.u, pr.v, rho)
		if win.Empty() {
			continue
		}
		dwin := geom.R(2*win.Min.X, 2*win.Min.Y, 2*win.Max.X, 2*win.Max.Y)
		winOf[pr.u] = append(winOf[pr.u], dwin)
		winOf[pr.v] = append(winOf[pr.v], dwin)
	}
	var pieces []geom.Rect
	for i := range st.occs {
		resid := st.occs[i].cert.D.Resid[l]
		if len(resid) == 0 {
			continue
		}
		d := st.occs[i].d
		dd := geom.Pt(2*d.X, 2*d.Y)
		translated := make([]geom.Rect, len(resid))
		for k, r := range resid {
			translated[k] = r.Translate(dd)
		}
		if ws := winOf[int32(i)]; len(ws) > 0 {
			translated = drc.SubtractRegion(translated, drc.MergeRegion(ws))
		}
		pieces = append(pieces, translated...)
	}
	return pieces
}

// windowPieces returns one width window's residue pieces in doubled
// coordinates RELATIVE to occurrence u (the pair's first), clipped to
// the window. The result is a pure function of the layer, the window's
// relative rectangle and the occupant pattern relative to u, so it
// memoizes on that signature — a lattice repeats a handful of
// signatures across thousands of windows.
func (e *Engine) windowPieces(st *genState, l geom.Layer, minW int, win, clip geom.Rect, u int32) []geom.Rect {
	wocc := e.wocc[:0]
	st.matIx.QueryRect(clip, func(w int) bool {
		if len(st.occs[w].cert.D.Rects[l]) > 0 {
			wocc = append(wocc, w)
		}
		return true
	})
	sort.Ints(wocc)
	e.wocc = wocc
	du := st.occs[u].d
	winRel := win.Translate(neg(du))
	key := appendInts(e.winKey[:0], len(l))
	key = append(key, l...)
	key = appendInts(key, winRel.Min.X, winRel.Min.Y, winRel.Max.X, winRel.Max.Y)
	for _, w := range wocc {
		o := &st.occs[w]
		key = appendInts(key, o.cert.id, o.d.X-du.X, o.d.Y-du.Y)
	}
	e.winKey = key
	if rel, ok := e.winMemo[string(key)]; ok {
		return rel
	}
	var local []geom.Rect
	for _, w := range wocc {
		o := &st.occs[w]
		rects := o.cert.D.Rects[l]
		lclip := clip.Translate(neg(o.d))
		toRel := o.d.Sub(du)
		o.cert.D.Index(l).QueryRect(lclip, func(id int) bool {
			if c := rects[id].Canon().Intersect(lclip); !c.Empty() {
				local = append(local, c.Translate(toRel))
			}
			return true
		})
	}
	dwinRel := geom.R(2*winRel.Min.X, 2*winRel.Min.Y, 2*winRel.Max.X, 2*winRel.Max.Y)
	var rel []geom.Rect
	for _, r := range drc.WidthResidues(local, minW) {
		if c := r.Intersect(dwinRel); !c.Empty() {
			rel = append(rel, c)
		}
	}
	e.winMemo[string(key)] = rel
	return rel
}

func appendInts(b []byte, vs ...int) []byte {
	for _, v := range vs {
		u := uint64(int64(v))
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return b
}

// composeSpacing measures the templates' candidate pairs — only
// cross-occurrence pairs outside the abutment trust contract — against
// the composed touch partition (local components plus cross-occurrence
// touch edges, closed globally).
func (e *Engine) composeSpacing(st *genState) {
	needed := map[geom.Layer]bool{}
	for _, pr := range st.pairs {
		if pr.t.cands == 0 {
			continue
		}
		st.spacingCands += pr.t.cands
		for l, cs := range pr.t.spacingCands {
			if len(cs) > 0 {
				needed[l] = true
			}
		}
	}
	if len(needed) == 0 {
		return
	}
	for _, l := range st.layers {
		if !needed[l] {
			continue
		}
		minS := rules.Of(l).MinSpacing * rules.Lambda
		base := make([]int32, len(st.occs)+1)
		for i := range st.occs {
			base[i+1] = base[i] + int32(len(st.occs[i].cert.D.Rects[l]))
		}
		uf := geom.NewUnionFind(int(base[len(st.occs)]))
		for i := range st.occs {
			b := int(base[i])
			for ri, root := range st.occs[i].cert.D.Comp[l] {
				uf.Union(b+ri, b+int(root))
			}
		}
		for _, pr := range st.pairs {
			for _, pc := range pr.t.compTouch[l] {
				uf.Union(int(base[pr.u]+pc[0]), int(base[pr.v]+pc[1]))
			}
		}
		for _, pr := range st.pairs {
			cs := pr.t.spacingCands[l]
			if len(cs) == 0 {
				continue
			}
			u, v := &st.occs[pr.u], &st.occs[pr.v]
			uRects, vRects := u.cert.D.Rects[l], v.cert.D.Rects[l]
			for _, c := range cs {
				if uf.Find(int(base[pr.u]+c[0])) == uf.Find(int(base[pr.v]+c[1])) {
					continue // one composed component: spacing exempt
				}
				if vio, bad := drc.SpacingPair(l, uRects[c[0]].Translate(u.d), vRects[c[1]].Translate(v.d), minS); bad {
					st.violations = append(st.violations, vio)
				}
			}
		}
	}
}

// composeSurround re-derives the metal surround of the certificates'
// locally-dirty cuts against all occupants' metal. Locally-clean cuts
// stay clean: foreign metal only adds cover.
func (e *Engine) composeSurround(st *genState) {
	surround := drc.ContactSurround * rules.Lambda
	for i := range st.occs {
		o := &st.occs[i]
		for _, cut := range o.cert.D.DirtyCuts {
			cutG := cut.Translate(o.d)
			need := cutG.Inset(-surround)
			var metal []geom.Rect
			st.matIx.QueryRect(need, func(w int) bool {
				wo := &st.occs[w]
				rects := wo.cert.D.Rects[geom.NM]
				if len(rects) == 0 {
					return true
				}
				ln := need.Translate(neg(wo.d))
				wo.cert.D.Index(geom.NM).QueryRect(ln, func(id int) bool {
					metal = append(metal, rects[id].Translate(wo.d))
					return true
				})
				return true
			})
			st.violations = append(st.violations, drc.CutSurround(cutG, metal)...)
		}
	}
}
