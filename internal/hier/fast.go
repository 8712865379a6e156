package hier

import (
	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/rules"
)

// The fast path proves a uniform single-instance array's DRC verdict
// in O(1) placed copies: it runs the exact general composition on one
// 5×5 lattice of the same cell, pitch and orientation.
//
// Why one lattice proves the whole array. The locality check (local)
// bounds what a copy reads, at two radii. core's PairOffsets lists
// every offset that comes within a radius, whatever its ring
// max(|di|, |dj|), so the check is exact:
//
//   - No ring-2 offset comes within the pair-discovery reach, so pairs
//     form only between ring-1 neighbours.
//   - No ring-3 offset comes within the material-read reach (3ρ past a
//     copy's material box), so every read stays within ring fastRing
//     = 2 of the copy.
//
// Every quantity the composition derives belongs to one copy u, or to
// one pair (u, v) with u the pair's first occurrence:
//
//   - the pair's template (unions, spacing candidates, poison), a
//     function of its offset;
//   - u's width residues minus the windows of the pairs that hold u,
//     all of them ring 1;
//   - a pair's width-window pieces, read from every occupant whose
//     material meets the window's clip, which lies inside u's material
//     box grown by 3ρ;
//   - u's dirty-cut surround, read from every occupant whose material
//     meets the cut grown by the surround (1λ, inside the pair reach).
//
// Every occupant those reads see lies within ring 2 of u. So each
// quantity is a function of the certificate, the offset and u's class
// (min(i, 2), min(n−1−i, 2)) per axis, which fixes u's ring-2
// occupancy. An array with both sides at least 5 has exactly 5 such
// classes per axis, and the 5×5 lattice realizes all 25 combinations,
// each with the ring-2 occupancy it has in the array. Its copies
// therefore derive the same residues, windows, surround and pair
// templates as the array's copies of their class, and the lattice is
// clean exactly when the array is. Both directions hold: the lattice's
// size moves no array from one path to the other.
//
// Spacing's component exemption alone can ride connectivity chains of
// unbounded length. The lattice therefore also requires ZERO spacing
// candidates. Candidacy is a pair-template property, and every pair is
// ring 1: each of the four forward ring-1 offsets is in every lattice
// of side ≥ 2. So zero candidates transfers exactly and the chain
// question never arises.
//
// A second argument covers the direction that matters, that the path
// passes only clean arrays, and it holds for any lattice of side ≥ 2.
// Width and surround are monotone in material. An opening only grows
// with material, so a width residue of a copy's own material stays one
// when occupants go, and foreign metal only adds cover to a cut. So a
// copy with fewer occupants keeps every violation of one with more.
// On each axis, the lattice's first copy has no more neighbours than
// any array copy in the array's first half, and its last copy no more
// than any in the second half. So every array copy has a lattice copy
// whose occupants, placed relative to it, are a subset of its own.
// Spacing candidates, poison and pend need no class at all: the
// lattice holds every forward ring-1 offset and the one certificate.
// A lattice that missed a class could thus only decline a clean array
// to the general composition, which still answers exactly, and never
// pass a dirty one. This is why verdict tests cannot tell lattice
// sizes from 2 up apart; the class argument is what makes 5 exact.
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
// Declines (any violation, any spacing candidate, a locality-check
// failure, a lattice pend/poison decline) run the general path, which
// composes the full array or declines it; any other lattice decline
// declines the engine.
const (
	// fastMinDim is the smallest array side the fast path takes. Any
	// side of at least fastLattice would be exact; 14 keeps smaller
	// arrays, and with them their LVS path, on the general composition.
	fastMinDim = 14
	// fastRing is the farthest ring the locality check lets a copy's
	// material reads reach.
	fastRing = 2
	// fastLattice is the side of the one lattice the fast path
	// composes: one copy per class on each axis.
	fastLattice = 2*fastRing + 1
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
	if !local(in, ct) {
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
		// The lattice lacks every index from fastLattice² up: a fault
		// at one of those lets the fast path answer, and fires in
		// lattice, when the circuit materializes, at the pair the
		// general path would name.
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

// local is the locality check, at two radii. Ring 2 (offsets with
// max(|di|, |dj|) = 2) must clear the pair-discovery reach: then
// templates, and with them unions, windows and spacing candidates,
// exist only between ring-1 neighbours. Ring fastRing+1 must clear the
// largest MATERIAL READ radius (a width window extends rho beyond the
// pair's boxes and its clip another 2*rho): then everything the
// composition derives at a copy reads only ring fastRing, which the
// copy's class determines.
func local(in *core.Instance, ct *Cert) bool {
	reach2 := pairReach(ct.D.Layers) + rules.Lambda
	reach3 := reach2
	for _, l := range ct.D.Layers {
		if r := 3*rhoOf(l) + rules.Lambda; r > reach3 {
			reach3 = r
		}
	}
	box := in.Tr.O.Inverse().ApplyRect(ct.X.MatBox) // in the cell's frame
	return farthest(in.PairOffsets(box, reach2)) <= 1 && farthest(in.PairOffsets(box, reach3)) <= fastRing
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
