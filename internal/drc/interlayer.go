package drc

import (
	"riot/internal/flatten"
	"riot/internal/geom"
	"riot/internal/rules"
)

// This file holds the inter-layer rules — checks that relate geometry
// on two different mask layers, on top of the per-layer width and
// spacing passes. The first of the ROADMAP's inter-layer set is
// implemented here:
//
//   - Contact surround: every contact cut (NC) must be covered by
//     metal (NM) with at least ContactSurround lambda of overlap on
//     every side. A cut the metal does not reach around lets the etch
//     undercut the connection. The layer below the cut is not checked:
//     the library's contact structures land poly or diffusion exactly
//     flush with the cut, which is legal in the Mead & Conway rules
//     (the 4x4-lambda contact structure carries its surround in the
//     metal plate).
//
// Like the width rule — and unlike spacing — the check applies to all
// material regardless of leaf-occurrence provenance: covering metal
// may legitimately come from a neighboring cell, and a cut that lacks
// surround is broken no matter who drew it. Each cut is one indexed
// query pass over the flattened design's per-layer views, so the cost
// is proportional to the number of cuts, not the design.

// ContactSurround is the required metal overlap around a contact cut,
// in lambda: (ContactSize - cut side) / 2 with the standard 2x2 cut.
const ContactSurround = (rules.ContactSize - 2) / 2

// checkContactSurround reports every NC cut whose required metal
// surround is not fully covered by NM material.
func checkContactSurround(fr *flatten.Result) []Violation {
	cuts := fr.LayerRects(geom.NC)
	if len(cuts) == 0 {
		return nil
	}
	metal := fr.LayerRects(geom.NM)
	ix := fr.LayerIndex(geom.NM)
	surround := ContactSurround * rules.Lambda
	var out []Violation
	for _, cut := range cuts {
		cut = cut.Canon()
		if cut.Empty() {
			continue
		}
		need := cut.Inset(-surround)
		// union of the metal overlapping the required frame
		var cover []geom.Rect
		ix.QueryRect(need, func(id int) bool {
			if c := metal[id].Canon().Intersect(need); !c.Empty() {
				cover = append(cover, c)
			}
			return true
		})
		for _, r := range SubtractRegion([]geom.Rect{need}, MergeRegion(cover)) {
			out = append(out, Violation{
				Layer: geom.NC,
				Rect:  r,
				Rule:  RuleContactSurround,
				Got:   coveredSurround(cut, cover),
				Want:  surround,
			})
		}
	}
	return out
}

// coveredSurround measures the largest symmetric metal surround the
// cut actually has, in centimicrons at whole-lambda resolution (0 when
// even the cut itself is exposed). Violations carry centimicrons, like
// every other rule's Got/Want.
func coveredSurround(cut geom.Rect, cover []geom.Rect) int {
	for m := ContactSurround - 1; m >= 0; m-- {
		need := cut.Inset(-m * rules.Lambda)
		if len(SubtractRegion([]geom.Rect{need}, MergeRegion(cover))) == 0 {
			return m * rules.Lambda
		}
	}
	return 0
}
