package hier

import (
	"sort"

	"riot/internal/extract"
	"riot/internal/flatten"
	"riot/internal/geom"
)

// Partial degradation: when composition hits a per-placement decline
// condition — a pend certificate (device terminals need flat context)
// or a fragmentation-poison pair (cross-placement gate/diffusion
// overlap) — the engine quarantines just the offending placements
// instead of declining the whole run. The quarantined set re-flattens
// (flatten.Leaves) and re-solves flat (extract.GroupSolve) into a
// group residue, which splices into the certificate-composed
// remainder:
//
//   - The group's fragmentation is self-contained BECAUSE poison is
//     symmetric and puts both pair members in the group: every gate
//     that cuts group diffusion (and every diffusion a group gate
//     cuts) belongs to the group, so restricting the flat fragment
//     pipeline to the group's occurrences changes nothing. Composed
//     certificates stay exact for the same reason — no quarantined
//     gate touches their diffusion, or they would be quarantined too.
//   - Cross-boundary connectivity (group fragments touching composed
//     fragments on the same layer) is spliced by explicit unions over
//     the boundary seam (boundaryUnions).
//   - Context resolution (contact joins, device probes, labels) runs
//     under the flat locator's lowest-global-fragment rule, which
//     distributes over occurrence order: nodeAt compares the group's
//     winner (mapped back to its global occurrence) against the
//     composed occurrences' candidates.
//
// DRC needs NO group path: the DRC certificates are raw-rectangle
// based and fragmentation-independent, so width, spacing and surround
// compose from certificates for quarantined placements too.
type quarState struct {
	// inQ flags each global occurrence as quarantined.
	inQ []bool
	// occOf maps group occurrence index -> global occurrence index;
	// qIdx is the inverse (-1 for composed occurrences).
	occOf []int32
	qIdx  []int32
	// g is the group's flat-solved residue.
	g *extract.GroupCert
	// base offsets the group's local nets in the composed node space.
	base int32
	// devNodes holds each group device's resolved (gate, a, b) nodes.
	devNodes [][3]int32
}

// buildQuarantine flattens and solves the quarantined occurrences as
// one flat group, in global occurrence order so the group's fragment
// and device sequences are the matching spans of a whole-design flat
// run.
func (e *Engine) buildQuarantine(occs []placed, inQ []bool) (*quarState, error) {
	q := &quarState{inQ: inQ, qIdx: make([]int32, len(occs))}
	var leaves []flatten.LeafAt
	for i := range occs {
		q.qIdx[i] = -1
		if !inQ[i] {
			continue
		}
		q.qIdx[i] = int32(len(q.occOf))
		q.occOf = append(q.occOf, int32(i))
		leaves = append(leaves, flatten.LeafAt{
			Cell: occs[i].cert.Cell,
			Tr:   geom.Transform{O: occs[i].cert.Orient, D: occs[i].d},
		})
	}
	fr, err := flatten.Leaves(leaves)
	if err != nil {
		return nil, err
	}
	g := extract.GroupSolve(fr)
	q.g = g
	return q, nil
}

// boundaryUnions splices the quarantine seam: every group fragment
// unions with every composed fragment it touches on its own layer.
// Within-group touching is already swept by GroupSolve and
// composed-composed touching by the pair templates, so this closes
// the flat sweep's partition exactly.
func (st *genState) boundaryUnions() {
	q := st.quar
	for fi := range q.g.Frags {
		f := &q.g.Frags[fi]
		gnode := int(q.base + q.g.FragNet[fi])
		st.matIx.QueryRect(f.R, func(id int) bool {
			if q.inQ[id] {
				return true
			}
			o := &st.occs[id]
			r := f.R.Translate(neg(o.d))
			o.cert.X.QueryLayer(f.Layer, r, func(fj int) bool {
				st.uf.Union(gnode, int(o.netBase+o.cert.X.FragNet[fj]))
				return true
			})
			return true
		})
	}
}

// nodeAt finds the composed net NODE at a point under a contact-join
// layer constraint (LayerNone: any layer below the cut), across
// composed and quarantined material.
func (st *genState) nodeAt(p geom.Point, l geom.Layer) int32 {
	return st.locate(p, l, l == geom.LayerNone)
}

// locate finds the composed net NODE at a point on layer l, or — with
// belowCut — on any layer below the cut. On one layer any occupant's
// material works (all same-layer fragments containing one point touch,
// so they share a post-union net); below the cut the LOWEST global
// occurrence with eligible material decides — the flat fragment list
// is occurrence-major, so comparing the group winner's global
// occurrence against the composed candidates' ids reproduces the flat
// locator's lowest-global-fragment pick.
func (st *genState) locate(p geom.Point, l geom.Layer, belowCut bool) int32 {
	gOcc, gNet := int32(-1), int32(-1)
	if st.quar != nil {
		if belowCut {
			gOcc, gNet = st.quar.g.FindAtNone(p)
		} else {
			gOcc, gNet = st.quar.g.FindOnLayer(p, l)
		}
		if gOcc >= 0 {
			gOcc = st.quar.occOf[gOcc]
		}
	}
	var cand []int
	st.matIx.QueryPoint(p, func(id int) bool {
		cand = append(cand, id)
		return true
	})
	sort.Ints(cand)
	for _, id := range cand {
		if st.inQ(id) {
			continue
		}
		if gOcc >= 0 && gOcc < int32(id) {
			break // the group's fragment precedes every remaining candidate
		}
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
	if gNet >= 0 {
		return st.quar.base + gNet
	}
	return -1
}

// resolveGroupDevices resolves the quarantined devices' terminals with
// global context, exactly as the flat solver would (gate center on
// poly, channel probes on diffusion). A terminal that resolves nowhere
// means the flat run ERRORS rather than producing a verdict — the
// engine declines whole so the flat path reproduces that error.
func (st *genState) resolveGroupDevices() *Decline {
	q := st.quar
	q.devNodes = make([][3]int32, len(q.g.Devices))
	for i := range q.g.Devices {
		dv := &q.g.Devices[i]
		g := st.nodeAt(dv.Gate.Center(), geom.NP)
		a := st.nodeAt(dv.ProbeA, geom.ND)
		b := st.nodeAt(dv.ProbeB, geom.ND)
		if g < 0 || a < 0 || b < 0 {
			return &Decline{Cond: CondDeviceContext, Cell: st.occs[q.occOf[dv.Occ]].cert.Cell.Name, Placement: int(q.occOf[dv.Occ])}
		}
		q.devNodes[i] = [3]int32{g, a, b}
	}
	return nil
}
