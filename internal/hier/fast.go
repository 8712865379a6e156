package hier

import (
	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/rules"
)

// The fast path answers uniform single-instance arrays in O(1) placed
// copies: it runs the exact general composition on a handful of small
// virtual lattices of the same cell, pitch and orientation, and
// extrapolates.
//
// Why the extrapolation is sound:
//
//   - The offsets pre-check proves pairs form only between immediate
//     lattice neighbors (ring-2 offsets clear the pair-discovery
//     reach) and that material reads — window clips reach 3*rho past
//     a copy — stay within the ±2-step neighborhood (ring-3 offsets
//     clear it). Separations grow per axis with the offset, so larger
//     offsets cannot interact either.
//   - Everything the DRC verdict derives at a copy is then determined
//     by the copy's ±2-step occupancy, a pure function of the copy's
//     edge class (min(i,3), min(nx-1-i,3)) per axis. The 13×13 sample
//     realizes every class combination, so all-samples-clean implies
//     the full array is clean... EXCEPT that spacing's component
//     exemption can, in principle, ride connectivity chains of
//     unbounded length. The samples therefore also require ZERO
//     spacing candidates — candidacy is a pure pair-template property
//     and the full array's pair templates all appear among the
//     samples' (all relative placements within the immediate ring),
//     so zero candidates transfers exactly and the chain question
//     never arises.
//   - NetCount on a radius-1 uniform lattice is fitted as the bilinear
//     form a + b·nx + c·ny + d·nx·ny from four corner samples and
//     verified on three independent sizes; any mismatch falls back to
//     the exact general path. DeviceCount is exactly per-copy times
//     copies (certificates carry complete device lists).
//
// Declines (any violation, any spacing candidate, a fit mismatch, an
// offsets-check failure, a sample pend/poison decline) run the general
// path, which composes the full array or declines it; any other sample
// decline declines the engine.
const fastMinDim = 14

func abs2(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

type fastSize struct{ nx, ny int }

var (
	fastFitSizes    = []fastSize{{8, 8}, {9, 8}, {8, 9}, {9, 9}}
	fastVerifySizes = []fastSize{{10, 11}, {11, 10}, {13, 13}}
)

// fast attempts the sampling path. ok=false with nil error means "not
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
			ring := max2(abs2(di), abs2(dj))
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

	// A pend or poison sample makes the fast path not eligible: the
	// general path decides, so an injected fault keyed to a placement
	// index fires where the full array puts that index.
	run := func(s fastSize) (*genState, error) {
		occs := make([]placed, 0, s.nx*s.ny)
		for i := 0; i < s.nx; i++ {
			for j := 0; j < s.ny; j++ {
				d := o.Apply(geom.Pt(i*in.Sx, j*in.Sy)).Add(in.Tr.D)
				occs = append(occs, placedAt(ct, d))
			}
		}
		return e.compose(occs)
	}
	sampleErr := func(err error) (bool, error) {
		if d, ok := err.(*Decline); ok && (d.Cond == CondPend || d.Cond == CondPoison) {
			return false, nil
		}
		return false, err
	}

	var n [4]int
	for k, s := range fastFitSizes {
		st, err := run(s)
		if err != nil {
			ok, err := sampleErr(err)
			return nil, ok, err
		}
		if len(st.violations) > 0 || st.spacingCands > 0 {
			return nil, false, nil
		}
		n[k] = st.netCount
	}
	// N(nx,ny) = a + b·nx + c·ny + d·nx·ny through the four corners
	d := n[3] - n[1] - n[2] + n[0]
	b := (n[1] - n[0]) - 8*d
	c := (n[2] - n[0]) - 8*d
	a := n[0] - 8*b - 8*c - 64*d
	predict := func(s fastSize) int { return a + b*s.nx + c*s.ny + d*s.nx*s.ny }
	for _, s := range fastVerifySizes {
		st, err := run(s)
		if err != nil {
			ok, err := sampleErr(err)
			return nil, ok, err
		}
		if len(st.violations) > 0 || st.spacingCands > 0 {
			return nil, false, nil
		}
		if st.netCount != predict(s) {
			return nil, false, nil
		}
	}

	return &Result{
		NetCount:    predict(fastSize{in.Nx, in.Ny}),
		DeviceCount: in.Nx * in.Ny * len(ct.X.Devices),
		Violations:  nil,
		e:           e,
		top:         top,
	}, true, nil
}
