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

// evalLayer runs the full check over one layer: components from the
// index's touching pairs, whole-layer width residues, and spacing over
// the index's pairs within the rule distance.
func evalLayer(l geom.Layer, rects, boxes []geom.Rect, ix *geom.Index, rule rules.Rule) *layerEval {
	le := &layerEval{layer: l, rule: rule, boxes: boxes}
	le.comp = touchComponents(ix)
	le.widthResid = WidthResidues(rects, rule.MinWidth*rules.Lambda)

	// each pair is measured once: same-component and trust exemptions,
	// then the symmetric pair measurement. A gap <= minS-1 is a gap <
	// minS on the integer grid.
	if minS := rule.MinSpacing * rules.Lambda; minS > 0 {
		ix.Pairs(minS-1, func(i, j int) {
			if le.comp[i] == le.comp[j] || le.trusted(i, j) {
				return
			}
			if v, bad := SpacingPair(l, rects[i], rects[j], minS); bad {
				le.spacing = append(le.spacing, v)
			}
		})
	}
	return le
}

// touchComponents labels each indexed rectangle with the root of its
// touch component, unioning the index's touching pairs: the component
// loop the flat check and the cell certificate share. Which element is
// a root depends on the pair order; certificates store the roots, and
// composition reads only the partition they name.
func touchComponents(ix *geom.Index) []int32 {
	uf := geom.NewUnionFind(ix.Len())
	ix.Pairs(0, uf.Union)
	comp := make([]int32, ix.Len())
	for i := range comp {
		comp[i] = int32(uf.Find(i))
	}
	return comp
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
