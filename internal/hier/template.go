package hier

import (
	"riot/internal/geom"
	"riot/internal/rules"
)

// A template captures everything about how two certificates interact
// that is a pure function of the pair and its relative placement
// (certV translated by delta into certU's frame). Lattices repeat a
// handful of relative placements across thousands of occurrence
// pairs, so templates are memoized by (certU, certV, delta) and
// replayed per pair with one translation.
type tmplKey struct {
	cu, cv *Cert
	dx, dy int
}

type template struct {
	// poison: a gate of one cell overlaps the other's diffusion with
	// positive area, so the pair's fragmentation differs from the
	// certificates' — the engine declines. (Zero-area contact is a
	// subtract no-op and harmless.)
	poison bool
	// boxesTouch: the placed declared boxes touch or coincide — the
	// flat checker's spacing trust exemption for deliberate abutment.
	boxesTouch bool
	// unions: cross-placement net unions from same-layer fragment
	// touching, as (U local net, V local net) pairs, deduplicated.
	unions [][2]int32
	// compTouch: cross-placement touching raw-rectangle pairs per
	// layer, as (U rect id, V rect id) — edges of the composed
	// spacing component partition.
	compTouch map[geom.Layer][][2]int32
	// spacingCands: candidate spacing pairs per layer (gap below the
	// rule), only recorded for untrusted (non-touching-box) pairs.
	spacingCands map[geom.Layer][][2]int32
	// widthNear: layers on which the pair's material comes within the
	// width-interaction radius, i.e. needs a recomputation window.
	widthNear map[geom.Layer]bool
}

// template returns the memoized interaction of cu against cv placed
// at delta (in cu's local frame).
func (e *Engine) template(cu, cv *Cert, delta geom.Point) *template {
	k := tmplKey{cu, cv, delta.X, delta.Y}
	if t, ok := e.tmpl[k]; ok {
		e.stats.TemplateHits++
		return t
	}
	t := buildTemplate(cu, cv, delta)
	e.tmpl[k] = t
	e.stats.TemplateBuilt++
	return t
}

func buildTemplate(cu, cv *Cert, delta geom.Point) *template {
	back := geom.Pt(-delta.X, -delta.Y)
	if gatesOverND(cu, cv, back) || gatesOverND(cv, cu, delta) {
		// the engine declines on a poisoned pair, so nothing else about
		// it is ever replayed
		return &template{poison: true}
	}
	t := &template{
		compTouch:    map[geom.Layer][][2]int32{},
		spacingCands: map[geom.Layer][][2]int32{},
		widthNear:    map[geom.Layer]bool{},
	}
	bv := cv.X.Box.Translate(delta)
	t.boxesTouch = cu.X.Box == bv || cu.X.Box.Touches(bv)
	vMat := cv.X.MatBox.Translate(delta)

	// extraction unions: same-layer fragment touching across the pair
	seen := map[[2]int32]bool{}
	for _, l := range cu.X.FragLayers() {
		cu.X.QueryLayer(l, vMat, func(fi int) bool {
			ru := cu.X.Frags[fi].R.Translate(back)
			cv.X.QueryLayer(l, ru, func(fj int) bool {
				p := [2]int32{cu.X.FragNet[fi], cv.X.FragNet[fj]}
				if !seen[p] {
					seen[p] = true
					t.unions = append(t.unions, p)
				}
				return true
			})
			return true
		})
	}

	// per-layer raw-rectangle relations
	for _, l := range cu.D.Layers {
		vRects := cv.D.Rects[l]
		if len(vRects) == 0 {
			continue
		}
		uRects := cu.D.Rects[l]
		uIx, vIx := cu.D.Index(l), cv.D.Index(l)
		rule := rules.Of(l)
		minS := rule.MinSpacing * rules.Lambda
		rho := rhoOf(l)

		// touch edges (component composition)
		uIx.QueryRect(vMat, func(ui int) bool {
			ru := uRects[ui].Translate(back)
			vIx.QueryRect(ru, func(vj int) bool {
				t.compTouch[l] = append(t.compTouch[l], [2]int32{int32(ui), int32(vj)})
				return true
			})
			return true
		})

		// spacing candidates, only where the trust contract is silent
		if !t.boxesTouch && minS > 0 {
			uIx.QueryRect(vMat.Inset(-minS), func(ui int) bool {
				ru := uRects[ui].Canon().Translate(back).Inset(-(minS - 1))
				vIx.QueryRect(ru, func(vj int) bool {
					t.spacingCands[l] = append(t.spacingCands[l], [2]int32{int32(ui), int32(vj)})
					return true
				})
				return true
			})
		}

		// width proximity: does any material come within rho?
		near := false
		uIx.QueryRect(vMat.Inset(-rho), func(ui int) bool {
			ru := uRects[ui].Canon().Translate(back).Inset(-rho)
			vIx.QueryRect(ru, func(vj int) bool {
				near = true
				return false
			})
			return !near
		})
		if near {
			t.widthNear[l] = true
		}
	}
	return t
}

// gatesOverND reports fragmentation poison from one side: a gate of g,
// moved into nd's frame by toND, overlapping nd's diffusion with
// positive area would cut fragments the certificates never saw.
func gatesOverND(g, nd *Cert, toND geom.Point) bool {
	rects := nd.D.Rects[geom.ND]
	if len(rects) == 0 {
		return false
	}
	ix := nd.D.Index(geom.ND)
	for _, d := range g.X.Devices {
		gate := d.Gate.Canon().Translate(toND)
		bad := false
		ix.QueryRect(gate, func(id int) bool {
			bad = !gate.Intersect(rects[id].Canon()).Empty()
			return !bad
		})
		if bad {
			return true
		}
	}
	return false
}
