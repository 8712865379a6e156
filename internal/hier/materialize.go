package hier

import (
	"riot/internal/core"
	"riot/internal/extract"
	"riot/internal/geom"
)

// Circuit materializes the full netlist for a verdict: every
// occurrence's devices renumbered into the composed dense net space, in
// flatten's walk order (the order LVS aligns its reference against),
// plus the label table filled in site order. Materialization is
// O(placed copies) — exactly the cost the fast path exists to avoid —
// so it only happens when a caller needs the netlist. A fast-path
// verdict is exact already (its violations stand), so it composes only
// connectivity first, by column classes over the array's one
// certificate (lattice): no walk, no spatial index and no per-copy
// record, with union-finds over one column's boundary nets and over
// (column, class) pairs. What stays per copy is the walk-order
// numbering pass and the device copy. A decline there is recorded as
// the engine's last decline. The top must not have changed since
// Verify (a snapshot never does): sites index the occurrences by the
// top's instance list.
func (r *Result) Circuit() (*extract.Circuit, error) {
	if r.ckt != nil {
		return r.ckt, nil
	}
	st := r.gen
	if st == nil {
		csp := r.e.Trace.Begin("compose")
		var err error
		st, r.lat, err = r.e.lattice(r.top)
		csp.End()
		if err != nil {
			// a decline this late is still a decline: counted, recorded
			// and traced like one from Verify
			d := declineOf(err)
			r.e.declined(d)
			return nil, d
		}
		r.gen = st
	}

	ckt := &extract.Circuit{NetCount: st.netCount, Transistors: st.devices()}
	ckt.Sites = r.sites(st)
	r.ckt = ckt
	return ckt, nil
}

// devices lists the transistors in flat walk order: each occurrence's
// certificate terminals, renumbered into the composed nets (nil when
// there are none).
func (st *genState) devices() []extract.Transistor {
	n, total := st.size(), 0
	for u := 0; u < n; u++ {
		ct, _ := st.occ(u)
		total += len(ct.X.Devices)
	}
	if total == 0 {
		return nil
	}
	out := make([]extract.Transistor, 0, total)
	for u := 0; u < n; u++ {
		ct, base := st.occ(u)
		for _, dv := range ct.X.Devices {
			out = append(out, extract.Transistor{
				Kind: dv.Kind,
				Gate: int(st.netOf[base+dv.GateNet]),
				A:    int(st.netOf[base+dv.ANet]),
				B:    int(st.netOf[base+dv.BNet]),
			})
		}
	}
	return out
}

// sites fills the label table in site order: the top's kept extras,
// then each top-level instance's visible connectors, each resolved to
// its dense composed net (-1: no material), as the flat solver's label
// pass resolves them.
//
// Copy (i,j) of a leaf instance is occurrence first+i·Ny+j, so its
// sites read the certificate's port nets: a port with a local net
// names netOf[netBase+net], because same-layer fragments that share a
// point share a composed net — the placement's own fragment answers
// for the flat solver's lowest-fragment pick. The spatial query runs
// only where the answer depends on context: a port with no local net
// (no material on its layer, or no layer), an extra, and the
// connectors of a composition instance.
func (r *Result) sites(st *genState) []int32 {
	top, first := r.top, st.first
	head := core.LabelHead(top)
	hint := len(head)
	for k, in := range top.Instances {
		if in.Cell.Kind != core.Composition {
			ct, _ := st.occ(first[k])
			hint += len(ct.conns) * max(in.Nx, in.Ny)
		}
	}
	tab := make([]int32, 0, hint)
	local, context := 0, 0
	for _, cn := range head {
		context++
		tab = append(tab, st.labelNet(cn.At, cn.Layer))
	}
	for k, in := range top.Instances {
		if in.Cell.Kind == core.Composition {
			conns := in.Cell.Connectors()
			in.Sites(conns, func(i, j, p int) {
				context++
				tab = append(tab, st.labelNet(in.CopyTransform(i, j).Apply(conns[p].At), conns[p].Layer))
			})
			continue
		}
		fk := first[k]
		ct, _ := st.occ(fk)
		in.Sites(ct.conns, func(i, j, p int) {
			u := fk + i*in.Ny + j
			if n := ct.portNet[p]; n >= 0 {
				local++
				_, base := st.occ(u)
				tab = append(tab, st.netOf[base+n])
			} else {
				context++
				tab = append(tab, st.labelNet(ct.conns[p].At.Add(st.shift(u)), ct.conns[p].Layer))
			}
		})
	}
	r.e.stats.LabelsLocal += local
	r.e.stats.LabelsContext += context
	return tab
}

// labelNet resolves a label point to its dense composed net. Labels
// resolve on their own layer only, as the flat solver's label pass
// does — an unlayered connector matches no fragment, never the join
// rule's "any layer below the cut".
func (st *genState) labelNet(p geom.Point, l geom.Layer) int32 {
	if n := st.locate(p, l, false); n >= 0 {
		return st.netOf[n]
	}
	return -1
}
