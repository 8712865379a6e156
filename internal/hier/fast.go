package hier

import (
	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/rules"
)

// The fast path proves a uniform single-instance array's DRC verdict
// in O(1) placed copies: it runs the exact general composition on one
// 13×13 lattice of the same cell, pitch and orientation.
//
// Why one lattice proves the whole array:
//
//   - The offsets pre-check proves pairs form only between immediate
//     lattice neighbors (no ring-2 offset comes within the
//     pair-discovery reach) and that material reads — window clips
//     reach 3*rho past a copy — stay within the ±2-step neighborhood
//     (no ring-3 offset comes within that). core's PairOffsets lists
//     every offset that does, whatever its ring, so the check is exact.
//   - Everything the DRC verdict derives at a copy is then determined
//     by the copy's ±2-step occupancy, so a copy's verdict is a
//     function of its edge class (min(i,3), min(n-1-i,3)) per axis.
//     The 13×13 lattice realizes every class combination and every
//     relative placement of the immediate ring, so a clean lattice
//     proves the full array clean... EXCEPT that spacing's component
//     exemption can, in principle, ride connectivity chains of
//     unbounded length. The lattice therefore also requires ZERO
//     spacing candidates — candidacy is a pure pair-template property
//     and the full array's pair templates all appear in the lattice,
//     so zero candidates transfers exactly and the chain question
//     never arises.
//
// The verdict carries violations only. Result.Circuit composes the
// whole array's connectivity when a caller needs the netlist (lattice),
// with no walk and no index, and equals the general connect because:
//
//   - Copy (i, j) is the walk's occurrence i·Ny+j, at CopyTransform(i,
//     j).D, and every copy has the one certificate.
//   - Pair existence (material boxes within pairReach) and the pair's
//     template are functions of the copies' offset alone, so the pairs
//     are exactly PairOffsets' offsets at every (i, j) they fit, each
//     with one template. Once ring 2 clears the reach, they are ring 1.
//   - The union-find's partition does not depend on union order, and
//     the renumbering reads only that partition. The unions run in
//     (u, v) order anyway, so declines, faults and the per-pair
//     counters match the general path's.
//   - Arithmetic occupancy (CopiesTouching) returns the copies whose
//     material box holds a point, in ascending occurrence order: the
//     index query's candidate set, in the order locate sorts it into.
//
// Result.Lattice exports what that composition read, from which LVS
// settles the array's check without walking the copies.
//
// Declines (any violation, any spacing candidate, an offsets-check
// failure, a lattice pend/poison decline) run the general path, which
// composes the full array or declines it; any other lattice decline
// declines the engine.
const (
	fastMinDim  = 14 // smallest array side the fast path takes
	fastLattice = 13 // side of the one lattice it composes
)

// fast attempts the lattice path. ok=false with nil error means "not
// eligible, run the general path"; a non-nil error declines the engine.
func (e *Engine) fast(top *core.Cell) (*Result, bool, error) {
	if len(top.Instances) != 1 {
		return nil, false, nil
	}
	in := top.Instances[0]
	if in.Cell == nil || in.Cell.Kind == core.Composition {
		return nil, false, nil
	}
	if in.Nx < fastMinDim || in.Ny < fastMinDim {
		return nil, false, nil
	}
	ct, err := e.cert(in.Cell, in.Tr.O)
	if err != nil {
		return nil, false, err
	}
	// Locality proof, two radii. Ring 2 (offsets with max(|di|,|dj|)=2)
	// must clear the pair-discovery reach: then templates — and with
	// them unions, windows, spacing candidates — exist only between
	// immediate neighbors. Ring 3 must clear the largest MATERIAL READ
	// radius (a width window extends rho beyond the pair's boxes and
	// its clip another 2*rho): then everything the composition derives
	// at a copy reads only the ±2-step neighborhood, which the edge
	// classes determine.
	reach2 := pairReach(ct.D.Layers) + rules.Lambda
	reach3 := reach2
	for _, l := range ct.D.Layers {
		if r := 3*rhoOf(l) + rules.Lambda; r > reach3 {
			reach3 = r
		}
	}
	box := in.Tr.O.Inverse().ApplyRect(ct.X.MatBox) // in the cell's frame
	if farthest(in.PairOffsets(box, reach2)) > 1 || farthest(in.PairOffsets(box, reach3)) > 2 {
		return nil, false, nil
	}

	fsp := e.Trace.Begin("fast")
	defer fsp.End()

	occs := make([]placed, 0, fastLattice*fastLattice)
	for i := 0; i < fastLattice; i++ {
		for j := 0; j < fastLattice; j++ {
			occs = append(occs, placedAt(ct, in.CopyTransform(i, j).D))
		}
	}
	st := &genState{retained: retained{occs: occs}}
	if err := e.compose(st, nil); err != nil {
		// A pend or poison lattice makes the fast path not eligible:
		// the general path decides, so an injected fault keyed to a
		// placement index fires where the full array puts that index.
		if d, ok := err.(*Decline); ok && (d.Cond == CondPend || d.Cond == CondPoison) {
			return nil, false, nil
		}
		return nil, false, err
	}
	if len(st.violations) > 0 || st.spacingCands > 0 {
		return nil, false, nil
	}
	return &Result{e: e, top: top}, true, nil
}

// farthest returns the largest ring, max(|di|, |dj|), among forward
// offsets.
func farthest(offs []core.Offset) int {
	n := 0
	for _, o := range offs {
		n = max(n, o.DI, o.DJ, -o.DJ)
	}
	return n
}

// Lattice is what a fast-path circuit was composed over: the
// certificate at every copy of the top's one leaf ARRAY instance, its
// port nets (Cell.Connectors order, -1: no material), and each pairing
// offset with its template's (copy net, copy+offset net) unions. With
// no deferred joins, the circuit's nets are the closure of those
// unions. The certificate is never Pend (number declines one), and the
// circuit lists its devices once per copy. Every slice is the engine's:
// read-only.
type Lattice struct {
	Inst    *core.Instance
	Cert    *Cert
	PortNet []int32
	Offsets []core.Offset
	Unions  [][][2]int32
}

// lattice composes a fast-path array's connectivity by lattice
// arithmetic (see the fast-path doc): each pairing offset resolves its
// template once, replayed over the copies in (u, v) order into the
// shared union/join/renumber tail, and returns the Lattice it read.
func (e *Engine) lattice(top *core.Cell) (*genState, *Lattice, error) {
	in := top.Instances[0]
	ct, err := e.cert(in.Cell, in.Tr.O)
	if err != nil {
		return nil, nil, &Decline{Cond: CondCertBuild, Placement: -1, Err: err}
	}
	nx, ny := in.Nx, in.Ny
	e.stats.CertMemoHits += nx*ny - 1 // every other copy reuses it, as a walk counts
	st := &genState{retained: retained{top: top, first: []int{0, nx * ny}, occs: make([]placed, nx*ny)},
		lat: in, latBox: in.Tr.O.Inverse().ApplyRect(ct.X.MatBox)}
	for u := range st.occs {
		st.occs[u] = placedAt(ct, in.CopyTransform(u/ny, u%ny).D)
	}
	total, err := e.number(st)
	if err != nil {
		return nil, nil, err
	}
	st.layers = layersOf(st.occs[:1])
	offs := in.PairOffsets(st.latBox, pairReach(st.layers))
	for _, o := range offs {
		e.stats.PairsComposed += (nx - o.DI) * (ny - max(o.DJ, -o.DJ))
	}
	tmpls := make([]*template, len(offs))
	lt := &Lattice{Inst: in, Cert: ct, PortNet: ct.portNet, Offsets: offs, Unions: make([][][2]int32, len(offs))}
	uf := geom.NewUnionFind(total)
	for u := range st.occs {
		for k, o := range offs {
			if i, j := u/ny+o.DI, u%ny+o.DJ; i >= nx || j < 0 || j >= ny {
				continue
			}
			v := u + o.DI*ny + o.DJ
			if tmpls[k] == nil {
				tmpls[k] = e.template(ct, ct, st.occs[v].d.Sub(st.occs[u].d))
				lt.Unions[k] = tmpls[k].unions
			} else {
				e.stats.TemplateHits++
			}
			if err := e.poisoned(st, int32(u), int32(v), tmpls[k]); err != nil {
				return nil, nil, err
			}
			st.unite(uf, int32(u), int32(v), tmpls[k])
		}
	}
	st.link(uf)
	return st, lt, nil
}
