package extract

import (
	"riot/internal/flatten"
	"riot/internal/geom"
	"riot/internal/sticks"
)

// GroupCert is the flat-solved connectivity of a GROUP of leaf
// occurrences — the hierarchical engine's quarantine residue. Where a
// CellCert covers one distinct cell in its local frame, a GroupCert
// covers an explicit occurrence list (flatten.Leaves) in global
// coordinates: the group's material is fragmented and swept exactly
// like the flat solver would fragment those occurrences inside a
// whole-design run.
//
// Why the group's fragments are byte-identical to the matching spans
// of a full flat solve: fragmentation subtracts cutting gates from
// diffusion in device order, and a gate that does not intersect a
// shape is a subtract no-op — so as long as every gate that cuts group
// material belongs to the group (the engine guarantees this: a foreign
// gate over group diffusion, or a group gate over foreign diffusion,
// is exactly the poison condition that put both placements in the
// group), restricting the device list to the group's changes nothing.
// Cross-boundary connectivity (group fragments touching composed
// certificate fragments) is NOT local to the group; the engine splices
// it with explicit unions.
type GroupCert struct {
	// Frags is the group fragment list in solve order (occurrence-major,
	// global coordinates).
	Frags []flatten.Shape
	// FragNet maps each fragment to its dense group-local net id
	// (first-fragment order, the same convention as CellCert.FragNet).
	FragNet []int32
	// FragOcc maps each fragment to the group occurrence that produced
	// it (indices into the Leaves list).
	FragOcc []int32
	// NetCount is the number of group-local nets.
	NetCount int
	// Devices lists the group's transistors in occurrence-major flatten
	// order with UNRESOLVED probe points: terminal resolution needs the
	// whole placed design (a probe can land on composed material), so
	// the engine resolves them with global context.
	Devices []GroupDevice
	// Joins lists every contact join of the group, all deferred: the
	// engine resolves both sides against group and composed material
	// under the flat locator's lowest-global-fragment rule.
	Joins []flatten.Join
	// OccFragSpan and OccDevSpan give each group occurrence's
	// half-open [start, end) span in Frags and Devices.
	OccFragSpan [][2]int32
	OccDevSpan  [][2]int32

	loc *locator
}

// GroupDevice is one transistor of a quarantine group, in global
// coordinates, terminals unresolved.
type GroupDevice struct {
	Kind           sticks.DeviceKind
	Gate           geom.Rect
	ProbeA, ProbeB geom.Point
	Occ            int32
}

// GroupSolve fragments and sweeps a group flatten (flatten.Leaves)
// with the flat solver's connect pipeline. It performs no join baking
// and no device resolution — everything that could depend on material
// outside the group is left to the engine.
func GroupSolve(fr *flatten.Result) *GroupCert {
	frags, uf, loc := connect(fr)
	g := &GroupCert{Frags: frags, Joins: fr.Joins, loc: loc}
	g.FragOcc = make([]int32, len(frags))
	for i, f := range frags {
		g.FragOcc[i] = int32(f.Src)
	}
	// dense group-local nets in first-fragment order
	g.FragNet, g.NetCount = denseNets(uf, len(frags))

	for _, d := range fr.Devices {
		g.Devices = append(g.Devices, GroupDevice{
			Kind:   d.Kind,
			Gate:   d.Gate,
			ProbeA: d.ProbeA,
			ProbeB: d.ProbeB,
			Occ:    int32(d.Src),
		})
	}

	// occurrence spans over the occurrence-major fragment and device
	// lists
	n := len(fr.SrcBoxes)
	g.OccFragSpan = occSpans(n, len(g.Frags), func(i int) int32 { return g.FragOcc[i] })
	g.OccDevSpan = occSpans(n, len(g.Devices), func(i int) int32 { return g.Devices[i].Occ })
	return g
}

// occSpans turns an occurrence-major id sequence into per-occurrence
// half-open spans; occurrences that produced nothing get degenerate
// spans at their predecessor's end so iteration stays well-defined.
func occSpans(occs, n int, occOf func(int) int32) [][2]int32 {
	spans := make([][2]int32, occs)
	for o := range spans {
		spans[o][0] = -1
	}
	for i := 0; i < n; i++ {
		o := occOf(i)
		if spans[o][0] < 0 {
			spans[o][0] = int32(i)
		}
		spans[o][1] = int32(i + 1)
	}
	end := int32(0)
	for o := range spans {
		if spans[o][0] < 0 {
			spans[o] = [2]int32{end, end}
		} else {
			end = spans[o][1]
		}
	}
	return spans
}

// FindOnLayer returns the group occurrence and group-local net of the
// lowest group fragment on the layer containing the (global) point, or
// (-1, -1).
func (g *GroupCert) FindOnLayer(at geom.Point, layer geom.Layer) (int32, int32) {
	i := g.loc.findOnLayer(at, layer)
	if i < 0 {
		return -1, -1
	}
	return g.FragOcc[i], g.FragNet[i]
}

// FindAtNone returns the group occurrence and group-local net of the
// lowest eligible fragment (any layer but metal and cut) containing
// the point, or (-1, -1) — the group half of the flat solver's
// LayerNone join rule.
func (g *GroupCert) FindAtNone(at geom.Point) (int32, int32) {
	i := g.loc.findAt(at, geom.LayerNone)
	if i < 0 {
		return -1, -1
	}
	return g.FragOcc[i], g.FragNet[i]
}
