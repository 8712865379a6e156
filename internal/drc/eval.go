package drc

import (
	"riot/internal/geom"
	"riot/internal/rules"
)

// This file is the per-layer evaluation core behind Check and
// CheckLayer. One layerEval holds what a layer's check derives:
//
//   - the connected-component partition of touching rectangles.
//     Touching material is one electrical net, so spacing rules do not
//     apply inside a component;
//   - the width residues: the merged layer region minus its
//     morphological opening, kept as canonical slabs in doubled
//     coordinates;
//   - the spacing violations.
type layerEval struct {
	layer geom.Layer
	rule  rules.Rule
	rects []geom.Rect
	boxes []geom.Rect // per-rect occurrence boxes; nil = no trust, measure all
	comp  []int32     // component root per rect

	widthResid []geom.Rect // canonical residue slabs, doubled coordinates
	spacing    []Violation
}

// appendViolations flattens the eval's width residues and spacing
// violations into the caller's report.
func (le *layerEval) appendViolations(out []Violation) []Violation {
	minW := le.rule.MinWidth * rules.Lambda
	for _, r := range le.widthResid {
		out = append(out, WidthViolationFrom(le.layer, r, minW))
	}
	return append(out, le.spacing...)
}

// evalLayer runs the full check over one layer: components from
// per-rect index queries, whole-layer width residues, and the
// all-pairs spacing scan.
func evalLayer(l geom.Layer, rects, boxes []geom.Rect, ix *geom.Index, rule rules.Rule) *layerEval {
	le := &layerEval{layer: l, rule: rule, rects: rects, boxes: boxes}
	le.comp = touchComponents(rects, ix)
	le.widthResid = WidthResidues(rects, rule.MinWidth*rules.Lambda)

	minS := rule.MinSpacing * rules.Lambda
	if minS > 0 && len(rects) >= 2 {
		for i := range rects {
			le.scanSpacing(ix, i, minS)
		}
	}
	return le
}

// touchComponents labels each rectangle with the root of its touch
// component, finding touching partners through the layer's index: the
// component loop the flat check and the cell certificate share.
func touchComponents(rects []geom.Rect, ix *geom.Index) []int32 {
	uf := geom.NewUnionFind(len(rects))
	for i, r := range rects {
		ix.QueryRect(r, func(j int) bool {
			if j > i {
				uf.Union(i, j)
			}
			return true
		})
	}
	comp := make([]int32, len(rects))
	for i := range comp {
		comp[i] = int32(uf.Find(i))
	}
	return comp
}

// scanSpacing discovers spacing violations seen from rect i against
// every higher-indexed partner, so each pair is measured once: halo
// query, same-component and trust exemptions, then the symmetric pair
// measurement.
func (le *layerEval) scanSpacing(ix *geom.Index, i, minS int) {
	halo := minS - 1 // gap <= minS-1 <=> gap < minS on the integer grid
	grown := le.rects[i].Canon().Inset(-halo)
	ix.QueryRect(grown, func(j int) bool {
		if j <= i || le.comp[j] == le.comp[i] {
			return true
		}
		if le.trusted(i, j) {
			return true
		}
		if v, bad := SpacingPair(le.layer, le.rects[i], le.rects[j], minS); bad {
			le.spacing = append(le.spacing, v)
		}
		return true
	})
}

// trusted reports whether the pair is covered by the
// pre-designed-cell contract: material of one occurrence, or of two
// occurrences whose placement boxes touch (deliberate abutment or
// overlap). Without provenance nothing is trusted.
func (le *layerEval) trusted(i, j int) bool {
	if le.boxes == nil {
		return false
	}
	bi, bj := le.boxes[i], le.boxes[j]
	return bi == bj || bi.Touches(bj)
}
