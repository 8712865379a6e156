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
//     lattice neighbors (ring-2 offsets clear the pair-discovery
//     reach) and that material reads — window clips reach 3*rho past
//     a copy — stay within the ±2-step neighborhood (ring-3 offsets
//     clear it). Separations grow per axis with the offset, so larger
//     offsets cannot interact either.
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
// whole array's connectivity when a caller needs the netlist, and the
// circuit carries the exact net and device counts.
//
// Declines (any violation, any spacing candidate, an offsets-check
// failure, a lattice pend/poison decline) run the general path, which
// composes the full array or declines it; any other lattice decline
// declines the engine.
const (
	fastMinDim  = 14 // smallest array side the fast path takes
	fastLattice = 13 // side of the one lattice it composes
)

func abs2(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

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
	o := in.Tr.O
	vx := o.Apply(geom.Pt(in.Sx, 0))
	vy := o.Apply(geom.Pt(0, in.Sy))

	// Locality proof, two radii. Ring 2 (offsets with max(|di|,|dj|)=2)
	// must clear the pair-discovery reach: then templates — and with
	// them unions, windows, spacing candidates — exist only between
	// immediate neighbors. Ring 3 must clear the largest MATERIAL READ
	// radius (a width window extends rho beyond the pair's boxes and
	// its clip another 2*rho): then everything the composition derives
	// at a copy reads only the ±2-step neighborhood, which the edge
	// classes determine. Separations grow per axis with the offset, so
	// clearing ring 3 clears every farther ring too.
	reach2 := pairReach(ct.D.Layers) + rules.Lambda
	reach3 := reach2
	for _, l := range ct.D.Layers {
		if r := 3*rhoOf(l) + rules.Lambda; r > reach3 {
			reach3 = r
		}
	}
	mat := ct.X.MatBox
	for di := -3; di <= 3; di++ {
		for dj := -3; dj <= 3; dj++ {
			ring := max(abs2(di), abs2(dj))
			if ring < 2 {
				continue
			}
			reach := reach2
			if ring == 3 {
				reach = reach3
			}
			off := geom.Pt(di*vx.X+dj*vy.X, di*vx.Y+dj*vy.Y)
			if mat.Inset(-reach).Touches(mat.Translate(off)) {
				return nil, false, nil
			}
		}
	}

	fsp := e.Trace.Begin("fast")
	defer fsp.End()

	occs := make([]placed, 0, fastLattice*fastLattice)
	for i := 0; i < fastLattice; i++ {
		for j := 0; j < fastLattice; j++ {
			d := o.Apply(geom.Pt(i*in.Sx, j*in.Sy)).Add(in.Tr.D)
			occs = append(occs, placedAt(ct, d))
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
