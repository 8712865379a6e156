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
// the general path first, and a decline there is recorded as the
// engine's last decline. The top must not have changed since Verify
// (a snapshot never does): labels index the walked occurrences by the
// top's instance list.
func (r *Result) Circuit() (*extract.Circuit, error) {
	if r.ckt != nil {
		return r.ckt, nil
	}
	st := r.gen
	if st == nil {
		occs, err := r.e.placements(r.top)
		if err == nil {
			csp := r.e.Trace.Begin("compose")
			st, err = r.e.connect(occs)
			csp.End()
		}
		if err != nil {
			// a decline this late is still a decline: counted, recorded
			// and traced like one from Verify
			d := declineOf(err)
			r.e.declined(d)
			return nil, d
		}
		r.gen = st
	}

	// Devices in flat walk order: each occurrence's certificate
	// terminals, renumbered into the composed nets.
	ckt := &extract.Circuit{NetCount: st.netCount}
	if n := st.deviceCount(); n > 0 {
		ckt.Transistors = make([]extract.Transistor, 0, n)
	}
	occ := &flatten.Occurrences{Cells: make([]*core.Cell, len(st.occs)), DevLo: make([]int32, len(st.occs)+1)}
	for i := range st.occs {
		o := &st.occs[i]
		occ.Cells[i] = o.cert.Cell
		occ.DevLo[i] = int32(len(ckt.Transistors))
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

	ckt.NetOf = r.labels(st)
	r.ckt, r.Occs = ckt, occ
	return ckt, nil
}

// labels resolves the label map in flat walk order: the top's own
// connectors, then each top-level instance's connector labels (the
// flat walk does not recurse labels either). Unresolved labels drop
// silently; later resolutions of a repeated name win — both flat
// conventions.
//
// Copy (i,j) of a leaf instance is occurrence first+i·Ny+j, so its
// labels read the certificate's port table: a port with a local net
// names netOf[netBase+net], because same-layer fragments that share a
// point share a composed net — the placement's own fragment answers
// for the flat solver's lowest-fragment pick. The spatial query runs
// only where the answer depends on context: a port with no local net
// (no material on its layer, or no layer) and the connectors of a
// composition instance.
func (r *Result) labels(st *genState) map[string]int {
	top := r.top
	// each top-level instance's first occurrence, and a size hint
	first := make([]int, len(top.Instances)+1)
	hint := len(top.ExtraConnectors)
	for k, in := range top.Instances {
		span := in.Nx * in.Ny
		if in.Cell.Kind == core.Composition {
			span *= leafCount(in.Cell)
		} else {
			hint += len(st.occs[first[k]].cert.ports) * max(in.Nx, in.Ny)
		}
		first[k+1] = first[k] + span
	}
	netOf := make(map[string]int, hint)
	local, context := 0, 0
	// The top's exported instance connectors are written again, to the
	// same nets, by the instance pass; only its extras need this pass.
	if len(top.ExtraConnectors) > 0 {
		for _, cn := range top.Connectors() {
			context++
			if n := st.labelNet(cn.At, cn.Layer); n >= 0 {
				netOf[cn.Name] = int(n)
			}
		}
	}
	var name []byte
	for k, in := range top.Instances {
		if in.Cell.Kind == core.Composition {
			for _, ic := range in.Connectors() {
				context++
				if n := st.labelNet(ic.At, ic.Layer); n >= 0 {
					netOf[in.Name+"."+ic.Name] = int(n)
				}
			}
			continue
		}
		ports := st.occs[first[k]].cert.ports
		for i := 0; i < in.Nx; i++ {
			for j := 0; j < in.Ny; j++ {
				if in.IsArray() && i > 0 && i < in.Nx-1 && j > 0 && j < in.Ny-1 {
					continue // an interior copy faces no outside edge
				}
				oi := first[k] + i*in.Ny + j
				o := &st.occs[oi]
				for _, p := range ports {
					if !in.ConnVisible(p.side, i, j) {
						continue
					}
					var n int32
					if p.net >= 0 {
						local++
						n = st.netOf[o.netBase+p.net]
					} else {
						context++
						n = st.labelNet(p.at.Add(o.d), p.layer)
					}
					if n >= 0 {
						name = in.AppendLabel(name[:0], p.name, i, j)
						netOf[string(name)] = int(n)
					}
				}
			}
		}
	}
	r.e.stats.LabelsLocal += local
	r.e.stats.LabelsContext += context
	return netOf
}

// leafCount counts a cell's leaf occurrences: the walk's span per copy.
func leafCount(c *core.Cell) int {
	if c.Kind != core.Composition {
		return 1
	}
	n := 0
	for _, in := range c.Instances {
		n += in.Nx * in.Ny * leafCount(in.Cell)
	}
	return n
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
