package hier

import (
	"slices"

	"riot/internal/core"
	"riot/internal/faultinject"
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
// with no walk, no index and no per-copy record. Copy (i, j) is the
// walk's occurrence u = i·Ny+j, at CopyTransform(i, j).D, with the one
// certificate and its K local nets at net base u·K. The general
// connect would union, in one union-find over all Nx·Ny·K nets:
//
//   - every pair's template unions. Pair existence (material boxes
//     within pairReach) and the pair's template are functions of the
//     copies' offset alone, so the pairs are exactly PairOffsets'
//     offsets at every (i, j) they fit, each with one template. Once
//     ring 2 clears the reach, they are ring 1.
//   - every copy's resolved deferred joins. Arithmetic occupancy
//     (CopiesTouching) returns the copies whose material box holds a
//     point, in ascending occurrence order: the index query's
//     candidate set, in the order locate sorts it into. So the joins
//     resolve, copy by copy, to the nodes connect would union.
//
// Only a boundary net, a local net that some offset's template union
// or some resolved join names, is ever unioned; every other net is a
// class of its own. The lattice closes the boundary nets by column
// (the copies (i, 0..Ny−1)), as two-pass connected-component labelling
// does with its equivalence table (Rosenfeld and Pfaltz, 1966), in four
// steps, each exact:
//
//  1. The DI = 0 offsets' unions join copies of one column, and they
//     are the same set in every column. So one column's partition of
//     its boundary nets under them, the column classes, serves every
//     column.
//  2. A DI > 0 offset's union joins net a of copy (i, j) to net b of
//     copy (i+DI, j+DJ), so class c(j, a) of column i to class
//     c(j+DJ, b) of column i+DI. The set of those class pairs, over
//     the offset's unions and the rows j where it fits, does not
//     depend on the column. So it is deduplicated once and replayed
//     over the columns, in a union-find over (column, class).
//  3. A resolved join names two boundary nets, by the definition of
//     the boundary, so it is one more (column, class) union.
//  4. Dense numbers the classes by first element in node order, which
//     is walk order: copies in walk order, each over its local nets
//     (themselves numbered by first fragment). One pass in that order,
//     numbering each (column, class) root at its first appearance and
//     every other net afresh, gives the same numbers: the flat
//     solver's first-fragment numbering (connect).
//
// So the union-finds hold Ny times the boundary nets and Nx times the
// column classes, not Nx·Ny·K nodes, and what is left per copy is the
// numbering pass, the device copy, and the joins of a certificate that
// has any; the label table reads the edge copies. Declines, fault
// fires and counters stay the general path's: the pend fault, while
// armed, is asked copy by copy, and poison pair by pair in (u, v)
// order, over every copy while faults are armed and otherwise over the
// prefix of copies where each offset first fits, which resolves its
// template; every later pair is a template hit by arithmetic.
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
// unions. The certificate is never Pend (lattice declines one), and
// the circuit lists its devices once per copy. Every slice is the
// engine's: read-only.
type Lattice struct {
	Inst    *core.Instance
	Cert    *Cert
	PortNet []int32
	Offsets []core.Offset
	Unions  [][][2]int32
}

// lattice composes a fast-path array's connectivity by column classes
// (see the fast-path doc): the pend checks, each pairing offset's
// template, every copy's resolved joins, then the numbering. It
// returns a state that lists no occurrences (genState.occ computes
// them) and the Lattice it read.
func (e *Engine) lattice(top *core.Cell) (*genState, *Lattice, error) {
	in := top.Instances[0]
	ct, err := e.cert(in.Cell, in.Tr.O)
	if err != nil {
		return nil, nil, &Decline{Cond: CondCertBuild, Placement: -1, Err: err}
	}
	n := in.Nx * in.Ny
	e.stats.CertMemoHits += n - 1 // every other copy reuses it, as a walk counts
	lt := &Lattice{Inst: in, Cert: ct, PortNet: ct.portNet}
	st := &genState{retained: retained{top: top, first: []int{0, n}},
		lat: lt, latBox: in.Tr.O.Inverse().ApplyRect(ct.X.MatBox)}
	if e.Faults.Hit(faultinject.ComposeBudget, "") {
		return nil, nil, &Decline{Cond: CondComposeBudget, Placement: -1}
	}
	for u := 0; u < n; u++ {
		if ct.X.Pend || e.Faults.Hit(faultinject.CertPend, ct.Cell.Name) {
			return nil, nil, &Decline{Cond: CondPend, Cell: ct.Cell.Name, Placement: u}
		}
		if e.Faults == nil {
			break // unarmed, every copy answers as the first
		}
	}
	lt.Offsets = in.PairOffsets(st.latBox, pairReach(ct.D.Layers))
	if err := e.offsetTemplates(st); err != nil {
		return nil, nil, err
	}
	var joins [][2]int32
	if len(ct.X.Joins) > 0 {
		st.joins(func(a, b int32) { joins = append(joins, [2]int32{a, b}) })
	}
	st.netOf, st.netCount = lt.number(joins)
	return st, lt, nil
}

// offsetTemplates resolves each lattice offset's template into
// lt.Unions and checks pairs for poison as discover does, in (u, v)
// order: over every copy while faults are armed, else over the prefix
// of copies in which each offset first fits, at copy (0, max(0, −DJ)),
// where a poison template declines at the pair the general path names.
// Every later pair counts as a template hit.
func (e *Engine) offsetTemplates(st *genState) error {
	lt := st.lat
	in := lt.Inst
	nx, ny := in.Nx, in.Ny
	pairs, end := 0, nx*ny
	if e.Faults == nil {
		end = 1
	}
	for _, o := range lt.Offsets {
		pairs += (nx - o.DI) * (ny - max(o.DJ, -o.DJ))
		if e.Faults == nil {
			end = max(end, 1-o.DJ)
		}
	}
	e.stats.PairsComposed += pairs
	lt.Unions = make([][][2]int32, len(lt.Offsets))
	tmpls := make([]*template, len(lt.Offsets))
	for u := 0; u < end; u++ {
		for k, o := range lt.Offsets {
			if i, j := u/ny+o.DI, u%ny+o.DJ; i >= nx || j < 0 || j >= ny {
				continue
			}
			v := u + o.DI*ny + o.DJ
			if tmpls[k] == nil {
				tmpls[k] = e.template(lt.Cert, lt.Cert, st.shift(v).Sub(st.shift(u)))
				lt.Unions[k] = tmpls[k].unions
			} else {
				e.stats.TemplateHits++
			}
			pairs--
			if err := e.poisoned(st, int32(u), int32(v), tmpls[k]); err != nil {
				return err
			}
		}
	}
	e.stats.TemplateHits += pairs
	return nil
}

// number closes a lattice's boundary nets by column classes, then
// (column, class) pairs and the resolved joins' node pairs, and
// numbers every copy's nets in walk order (the fast-path doc's four
// steps): each node's dense net, and the net count, as Dense numbers
// the general connect's union-find.
func (lt *Lattice) number(joins [][2]int32) ([]int32, int) {
	nx, ny, k := lt.Inst.Nx, lt.Inst.Ny, lt.Cert.X.NetCount
	// bix[a] is boundary net a's index among the m boundary nets, -1
	// for any other net
	bix := make([]int32, k)
	for a := range bix {
		bix[a] = -1
	}
	for _, us := range lt.Unions {
		for _, p := range us {
			bix[p[0]], bix[p[1]] = 0, 0
		}
	}
	for _, jn := range joins {
		bix[jn[0]%int32(k)], bix[jn[1]%int32(k)] = 0, 0
	}
	m := 0
	for a := range bix {
		if bix[a] == 0 {
			bix[a] = int32(m)
			m++
		}
	}

	// 1. column classes: one column's boundary nets, (j, a) at j·m+bix[a],
	// under the DI = 0 unions
	col := geom.NewUnionFind(ny * m)
	for x, o := range lt.Offsets {
		if o.DI != 0 {
			continue
		}
		for j := 0; j+o.DJ < ny; j++ {
			for _, p := range lt.Unions[x] {
				col.Union(j*m+int(bix[p[0]]), (j+o.DJ)*m+int(bix[p[1]]))
			}
		}
	}
	cls, nc := col.Dense()

	// 2. each DI > 0 offset's class pairs, deduplicated and replayed over
	// the columns; (column i, class c) is node i·nc+c
	uf := geom.NewUnionFind(nx * nc)
	var cps []uint64
	for x, o := range lt.Offsets {
		if o.DI == 0 {
			continue
		}
		cps = cps[:0]
		for j := max(0, -o.DJ); j < min(ny, ny-o.DJ); j++ {
			for _, p := range lt.Unions[x] {
				a, b := cls[j*m+int(bix[p[0]])], cls[(j+o.DJ)*m+int(bix[p[1]])]
				cps = append(cps, uint64(a)<<32|uint64(b))
			}
		}
		slices.Sort(cps)
		cps = slices.Compact(cps)
		for i := 0; i+o.DI < nx; i++ {
			for _, cp := range cps {
				uf.Union(i*nc+int(cp>>32), (i+o.DI)*nc+int(uint32(cp)))
			}
		}
	}

	// 3. each resolved join, between the classes of its two nodes
	class := func(node int32) int {
		u, a := int(node)/k, int(node)%k
		return u/ny*nc + int(cls[u%ny*m+int(bix[a])])
	}
	for _, jn := range joins {
		uf.Union(class(jn[0]), class(jn[1]))
	}

	// 4. walk-order numbering: a class at its first appearance, every
	// other net afresh
	netOf := make([]int32, nx*ny*k)
	num := make([]int32, nx*nc) // (column, class) root -> net, -1 until seen
	for r := range num {
		num[r] = -1
	}
	root := make([]int, nc) // the current column's class roots
	next := int32(0)
	for i := 0; i < nx; i++ {
		for c := range root {
			root[c] = uf.Find(i*nc + c)
		}
		for j := 0; j < ny; j++ {
			base := (i*ny + j) * k
			for a, x := range bix {
				if x < 0 {
					netOf[base+a] = next
					next++
					continue
				}
				r := root[cls[j*m+int(x)]]
				if num[r] < 0 {
					num[r] = next
					next++
				}
				netOf[base+a] = num[r]
			}
		}
	}
	return netOf, int(next)
}
