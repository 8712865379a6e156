package flatten

import (
	"fmt"

	"riot/internal/core"
	"riot/internal/geom"
)

// LeafAt names one leaf occurrence for a group flatten: a
// non-composition cell under a full placement transform.
type LeafAt struct {
	Cell *core.Cell
	Tr   geom.Transform
}

// Leaves flattens an explicit list of leaf occurrences into one Result
// whose occurrence ids follow the list order — occurrence k's shapes,
// devices and joins land exactly where a full hierarchy flatten would
// put them if these were its k-th..-th leaves. The hierarchical
// engine's quarantine path uses this to re-derive flat geometry for
// just the placements it cannot compose from certificates: because the
// walk order within each occurrence is the flat walk's, the group's
// fragment and device sequences are byte-identical to the matching
// spans of a whole-design flatten.
//
// The result carries no labels (label resolution stays with the
// caller, which has the full design context).
func Leaves(occs []LeafAt) (*Result, error) {
	b := &builder{}
	for _, oc := range occs {
		if oc.Cell == nil {
			return nil, fmt.Errorf("flatten: group occurrence with nil cell")
		}
		if oc.Cell.Kind == core.Composition {
			return nil, fmt.Errorf("flatten: group occurrence %q is a composition, not a leaf", oc.Cell.Name)
		}
		if err := b.cell(oc.Cell, oc.Tr); err != nil {
			return nil, err
		}
	}
	return b.result(), nil
}
