package drc

import (
	"fmt"

	"riot/internal/flatten"
	"riot/internal/geom"
	"riot/internal/rules"
)

// CellDRC is a per-distinct-cell design-rule certificate: the cell's
// raw per-layer geometry, its local touch components, its local width
// residues, and the contact cuts whose metal surround is not already
// satisfied by the cell's own metal. The hierarchical engine composes
// placements of these certificates into the exact flat verdict:
//
//   - width residues are a pure canonical function of the material
//     point set with bounded locality, so the flat residues equal the
//     translated local residues outside every cross-occurrence
//     interaction window, plus residues recomputed inside the windows
//     from all occupants' material;
//   - spacing inside one occurrence is trusted (one box), so only
//     cross-occurrence pairs from untrusted placements measure, with
//     the component exemption checked against a composed global touch
//     partition (local components plus cross-occurrence touch edges);
//   - a cut whose surround is locally satisfied stays satisfied under
//     composition (foreign metal only adds cover), so only DirtyCuts
//     need their surround re-derived from global metal.
type CellDRC struct {
	// Layers lists the checked layers, in the flatten's deterministic
	// (CIF-name-sorted) order.
	Layers []geom.Layer
	// Rects holds each layer's raw rectangles in walk order, in the
	// certificate's oriented local frame.
	Rects map[geom.Layer][]geom.Rect
	// Comp is the local touch-component root of each rectangle.
	Comp map[geom.Layer][]int32
	// Resid holds the layer's width residues as canonical slabs in
	// DOUBLED local coordinates (WidthResidues form).
	Resid map[geom.Layer][]geom.Rect
	// DirtyCuts lists the NC cuts (canonical, normal coordinates) whose
	// metal surround the cell's own metal does not fully cover; their
	// verdict depends on surrounding material.
	DirtyCuts []geom.Rect

	ix map[geom.Layer]*geom.Index
}

// CellCheck builds the design-rule certificate for one flattened cell
// (a single leaf occurrence, flattened with the engine's orientation).
func CellCheck(fr *flatten.Result) *CellDRC {
	c := &CellDRC{
		Rects: map[geom.Layer][]geom.Rect{},
		Comp:  map[geom.Layer][]int32{},
		Resid: map[geom.Layer][]geom.Rect{},
	}
	for _, l := range checkedLayers(fr) {
		rects := fr.LayerRects(l)
		c.Layers = append(c.Layers, l)
		c.Rects[l] = rects
		c.Comp[l] = touchComponents(fr.LayerIndex(l))
		c.Resid[l] = WidthResidues(rects, rules.Of(l).MinWidth*rules.Lambda)
	}

	metal := fr.LayerRects(geom.NM)
	mix := fr.LayerIndex(geom.NM)
	var near []geom.Rect
	for _, cut := range fr.LayerRects(geom.NC) {
		cut = cut.Canon()
		near = near[:0]
		mix.QueryRect(cut.Inset(-ContactSurround*rules.Lambda), func(id int) bool {
			near = append(near, metal[id])
			return true
		})
		if len(CutSurround(cut, near)) > 0 {
			c.DirtyCuts = append(c.DirtyCuts, cut)
		}
	}
	return c
}

// Seal validates a certificate's invariants (after a disk decode).
func (c *CellDRC) Seal() error {
	for _, l := range c.Layers {
		rects, ok := c.Rects[l]
		if !ok {
			return fmt.Errorf("drc: certificate layer %s has no rectangles", l)
		}
		comp := c.Comp[l]
		if len(comp) != len(rects) {
			return fmt.Errorf("drc: certificate layer %s component length mismatch", l)
		}
		for _, r := range comp {
			if r < 0 || int(r) >= len(rects) {
				return fmt.Errorf("drc: certificate component root %d out of range", r)
			}
		}
	}
	return nil
}

// Index returns a lazily-built spatial index over one layer's
// rectangles (ids are Rects positions). Not concurrency-safe, like the
// flatten.Result accessors it mirrors.
func (c *CellDRC) Index(l geom.Layer) *geom.Index {
	if c.ix == nil {
		c.ix = map[geom.Layer]*geom.Index{}
	}
	ix, ok := c.ix[l]
	if !ok {
		ix = geom.NewIndexFrom(c.Rects[l])
		c.ix[l] = ix
	}
	return ix
}

// CutSurround checks one contact cut's metal surround against the
// given metal rectangles, exactly as the flat checker would.
func CutSurround(cut geom.Rect, metal []geom.Rect) []Violation {
	cut = cut.Canon()
	if cut.Empty() {
		return nil
	}
	surround := ContactSurround * rules.Lambda
	need := cut.Inset(-surround)
	var cover []geom.Rect
	for _, m := range metal {
		if cv := m.Canon().Intersect(need); !cv.Empty() {
			cover = append(cover, cv)
		}
	}
	var out []Violation
	for _, r := range SubtractRegion([]geom.Rect{need}, MergeRegion(cover)) {
		out = append(out, Violation{
			Layer: geom.NC,
			Rect:  r,
			Rule:  RuleContactSurround,
			Got:   coveredSurround(cut, cover),
			Want:  surround,
		})
	}
	return out
}

// FinishViolations canonicalizes a violation multiset the way every
// flat check path does: deterministic sort, then adjacent dedupe.
func FinishViolations(vs []Violation) []Violation {
	sortViolations(vs)
	return dedupe(vs)
}
