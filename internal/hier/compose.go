package hier

import (
	"sort"
	"strconv"

	"riot/internal/drc"
	"riot/internal/faultinject"
	"riot/internal/geom"
	"riot/internal/obs"
	"riot/internal/rules"
)

// genState is one exact composition: the placed occurrence list, the
// composed net partition and numbering, and the composed violation
// set. Everything downstream (materialization, labels) reads it.
type genState struct {
	occs   []placed
	layers []geom.Layer
	matIx  *geom.Index
	pairs  []pairRef

	netOf    []int32 // dense net of each (occ netBase + local net) node
	netCount int

	violations []drc.Violation
	// spacingCands counts candidate spacing pairs before the component
	// exemption — the fast path requires zero across its samples.
	spacingCands int
}

type pairRef struct {
	u, v int32
	t    *template
}

func (st *genState) deviceCount() int {
	n := 0
	for i := range st.occs {
		n += len(st.occs[i].cert.X.Devices)
	}
	return n
}

func neg(p geom.Point) geom.Point { return geom.Pt(-p.X, -p.Y) }

// compose runs the exact composition over a placed occurrence list —
// connectivity, then the composed DRC verdict — under one "compose"
// span.
func (e *Engine) compose(occs []placed) (*genState, error) {
	csp := e.Trace.Begin("compose")
	defer csp.End()
	if csp != nil {
		csp.Note("placements", strconv.Itoa(len(occs)))
	}
	st, err := e.connect(occs)
	if err != nil {
		return nil, err
	}
	e.check(st, csp)
	return st, nil
}

// connect composes the connectivity half: interacting pairs via one
// spatial query per occurrence, memoized pair templates, a global
// union-find over local nets, context resolution for the certificates'
// deferred joins, and the dense net renumbering. It is all a circuit
// needs; the DRC half (check) reads the pairs it records.
//
// A pend certificate or a fragmentation-poison pair is a composition
// the certificates cannot express: connect declines the run, always
// with a *Decline, and the caller runs the scratch flat oracle.
func (e *Engine) connect(occs []placed) (*genState, error) {
	if e.Faults.Hit(faultinject.ComposeBudget, "") {
		return nil, &Decline{Cond: CondComposeBudget, Placement: -1}
	}
	st := &genState{occs: occs}
	total := 0
	for i := range occs {
		if occs[i].cert.X.Pend || e.Faults.Hit(faultinject.CertPend, occs[i].cert.Cell.Name) {
			return nil, &Decline{Cond: CondPend, Cell: occs[i].cert.Cell.Name, Placement: i}
		}
		occs[i].netBase = int32(total)
		total += occs[i].cert.X.NetCount
	}
	st.layers = layersOf(occs)
	reach := pairReach(st.layers)

	ix := geom.NewIndex()
	for i := range occs {
		ix.Insert(occs[i].mat)
	}
	ix.Build()
	st.matIx = ix

	uf := geom.NewUnionFind(total)
	var cand []int
	for u := range occs {
		cand = cand[:0]
		ix.QueryRect(occs[u].mat.Inset(-reach), func(v int) bool {
			if v > u {
				cand = append(cand, v)
			}
			return true
		})
		sort.Ints(cand)
		for _, v := range cand {
			t := e.template(occs[u].cert, occs[v].cert, occs[v].d.Sub(occs[u].d))
			poison := t.poison
			if !poison && e.Faults != nil {
				poison = e.Faults.Hit(faultinject.TemplatePoison, strconv.Itoa(u)) ||
					e.Faults.Hit(faultinject.TemplatePoison, strconv.Itoa(v))
			}
			if poison {
				return nil, &Decline{Cond: CondPoison, Cell: occs[u].cert.Cell.Name, Placement: u}
			}
			ub, vb := occs[u].netBase, occs[v].netBase
			for _, p := range t.unions {
				uf.Union(int(ub+p[0]), int(vb+p[1]))
			}
			st.pairs = append(st.pairs, pairRef{int32(u), int32(v), t})
		}
	}

	// deferred joins, resolved in placement context. Both-sides-found
	// joins union; others drop, matching the flat solver.
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
	// fragment list; iterating the nodes in order — occurrences in global
	// order, each over its local net ids (themselves
	// first-fragment-ordered) — visits every class exactly at its first
	// flat fragment, so the two orders agree.
	netOf := make([]int32, total)
	rootID := make([]int32, total)
	for i := range rootID {
		rootID[i] = -1
	}
	n := 0
	for node := range netOf {
		r := uf.Find(node)
		if rootID[r] < 0 {
			rootID[r] = int32(n)
			n++
		}
		netOf[node] = rootID[r]
	}
	st.netOf, st.netCount = netOf, n
	return st, nil
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
	var cand []int
	st.matIx.QueryPoint(p, func(id int) bool {
		cand = append(cand, id)
		return true
	})
	sort.Ints(cand)
	for _, id := range cand {
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

// check composes the DRC half — width residues, cross-placement
// spacing, contact surround — into the run's violation set, recording
// its stages as children of sp.
func (e *Engine) check(st *genState, sp *obs.Span) {
	wsp := sp.Child("width")
	e.composeWidth(st)
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
// so clipping artifacts fall outside it. regionMerge canonicalizes, so
// the slabs — and with them the violations — equal a flat run's.
func (e *Engine) composeWidth(st *genState) {
	for _, l := range st.layers {
		minW := rules.Of(l).MinWidth * rules.Lambda
		if minW <= 0 {
			continue
		}
		rho := rhoOf(l)
		hasResid := false
		for i := range st.occs {
			if len(st.occs[i].cert.D.Resid[l]) > 0 {
				hasResid = true
				break
			}
		}
		var winOf map[int32][]geom.Rect
		if hasResid {
			winOf = map[int32][]geom.Rect{}
		}
		var pieces []geom.Rect
		var wocc []int
		for _, pr := range st.pairs {
			if !pr.t.widthNear[l] {
				continue
			}
			u, v := &st.occs[pr.u], &st.occs[pr.v]
			win := u.mat.Inset(-rho).Intersect(v.mat.Inset(-rho))
			if win.Empty() {
				continue
			}
			dwin := geom.R(2*win.Min.X, 2*win.Min.Y, 2*win.Max.X, 2*win.Max.Y)
			if winOf != nil {
				winOf[pr.u] = append(winOf[pr.u], dwin)
				winOf[pr.v] = append(winOf[pr.v], dwin)
			}
			clip := win.Inset(-2 * rho)

			// Everything inside the window is translation-invariant given
			// the occupant pattern relative to u — memoize in u's frame.
			wocc = wocc[:0]
			st.matIx.QueryRect(clip, func(w int) bool {
				if len(st.occs[w].cert.D.Rects[l]) > 0 {
					wocc = append(wocc, w)
				}
				return true
			})
			sort.Ints(wocc)
			du2 := geom.Pt(2*u.d.X, 2*u.d.Y)
			for _, r := range e.windowPieces(st, l, minW, win, clip, u.d, wocc) {
				pieces = append(pieces, r.Translate(du2))
			}
		}
		for i := range st.occs {
			o := &st.occs[i]
			resid := o.cert.D.Resid[l]
			if len(resid) == 0 {
				continue
			}
			dd := geom.Pt(2*o.d.X, 2*o.d.Y)
			translated := make([]geom.Rect, len(resid))
			for k, r := range resid {
				translated[k] = r.Translate(dd)
			}
			// Any residue point whose verdict could change under
			// composition has foreign material within the interaction
			// radius, which puts it inside one of THIS occurrence's
			// windows — subtracting them (and re-adding the windows'
			// globally-computed pieces) is exact.
			if ws := winOf[int32(i)]; len(ws) > 0 {
				translated = drc.SubtractRegion(translated, drc.MergeRegion(ws))
			}
			pieces = append(pieces, translated...)
		}
		for _, r := range drc.MergeRegion(pieces) {
			st.violations = append(st.violations, drc.WidthViolationFrom(l, r, minW))
		}
	}
}

// windowPieces returns one width window's residue pieces in doubled
// coordinates RELATIVE to du (the pair's first occurrence), clipped to
// the window. The result is a pure function of the layer, the window's
// relative rectangle and the occupant pattern relative to du, so it
// memoizes on that signature — a lattice repeats a handful of
// signatures across thousands of windows.
func (e *Engine) windowPieces(st *genState, l geom.Layer, minW int, win, clip geom.Rect, du geom.Point, wocc []int) []geom.Rect {
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
		for l, cs := range pr.t.spacingCands {
			if len(cs) > 0 {
				needed[l] = true
				st.spacingCands += len(cs)
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
