package hier

import (
	"riot/internal/core"
	"riot/internal/extract"
	"riot/internal/flatten"
	"riot/internal/geom"
)

// Circuit materializes the full netlist for a verdict: every
// occurrence's devices renumbered into the composed dense net space,
// plus the label map resolved in flat order, and the occurrence
// identity (Occs) alongside. Materialization is O(placed copies) —
// exactly the cost the fast path exists to avoid — so it only happens
// when a caller needs the netlist. A fast-path verdict is exact already
// (its violations stand), so it composes only the connectivity half of
// the general path first.
func (r *Result) Circuit() (*extract.Circuit, error) {
	if r.ckt != nil {
		return r.ckt, nil
	}
	st := r.gen
	if st == nil {
		occs, err := r.e.placements(r.top)
		if err != nil {
			return nil, err
		}
		csp := r.e.Trace.Begin("compose")
		st, err = r.e.connect(occs, true)
		csp.End()
		if err != nil {
			return nil, err
		}
		r.gen = st
		if st.quar != nil {
			r.Quarantined = len(st.quar.occOf)
		}
	}

	// Devices in flat walk order: composed occurrences read their
	// certificate's locally-resolved terminals; quarantined ones read
	// their group span's globally-resolved terminals. Both interleave
	// in global occurrence order, which is the flat device order.
	ckt := &extract.Circuit{NetCount: st.netCount, NetOf: map[string]int{}}
	occ := &flatten.Occurrences{Cells: make([]*core.Cell, len(st.occs)), DevLo: make([]int32, len(st.occs)+1)}
	for i := range st.occs {
		o := &st.occs[i]
		occ.Cells[i] = o.cert.Cell
		occ.DevLo[i] = int32(len(ckt.Transistors))
		if st.inQ(i) {
			q := st.quar
			sp := q.g.OccDevSpan[q.qIdx[i]]
			for k := sp[0]; k < sp[1]; k++ {
				dn := q.devNodes[k]
				ckt.Transistors = append(ckt.Transistors, extract.Transistor{
					Kind: q.g.Devices[k].Kind,
					Gate: int(st.netOf[dn[0]]),
					A:    int(st.netOf[dn[1]]),
					B:    int(st.netOf[dn[2]]),
				})
			}
			continue
		}
		for _, dv := range o.cert.X.Devices {
			ckt.Transistors = append(ckt.Transistors, extract.Transistor{
				Kind: dv.Kind,
				Gate: int(st.netOf[o.netBase+dv.GateNet]),
				A:    int(st.netOf[o.netBase+dv.ANet]),
				B:    int(st.netOf[o.netBase+dv.BNet]),
			})
		}
	}
	occ.DevLo[len(st.occs)] = int32(len(ckt.Transistors))

	// Labels in flat walk order: the top's own connectors, then each
	// top-level instance's connector labels (the flat walk does not
	// recurse labels either). Unresolved labels drop silently; later
	// resolutions of a repeated name win — both flat conventions.
	set := func(name string, at geom.Point, l geom.Layer) {
		if n := st.labelNet(at, l); n >= 0 {
			ckt.NetOf[name] = int(n)
		}
	}
	for _, cn := range r.top.Connectors() {
		set(cn.Name, cn.At, cn.Layer)
	}
	for _, in := range r.top.Instances {
		for _, nl := range flatten.InstanceLabels(in) {
			set(nl.Name, nl.At, nl.Layer)
		}
	}
	r.ckt, r.Occs = ckt, occ
	return ckt, nil
}

// labelNet resolves a label point to its dense composed net via the
// shared lowest-global-fragment resolution (composed and quarantined
// material alike).
func (st *genState) labelNet(p geom.Point, l geom.Layer) int32 {
	if n := st.nodeAt(p, l); n >= 0 {
		return st.netOf[n]
	}
	return -1
}
