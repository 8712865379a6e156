// Package lvs is the layout-versus-schematic leg of the verification
// triad: it proves that the transistor netlist extracted from the
// assembled mask geometry (internal/extract) is isomorphic to the
// netlist the design's composition declares, and reports structured,
// stable diagnostics when it is not.
//
// Riot has no schematic entry — the paper's workflow assembles
// pre-designed cells, and "the designer must verify connections with
// extensive checking". What the design does declare is intent: which
// leaf cells were placed where, which connectors the connection
// commands joined, and which seams the abutment contract sanctions.
// The reference netlist is derived from exactly that:
//
//   - every leaf cell's netlist comes from extracting the leaf alone
//     (memoized per cell in process — a 32x32 array extracts its cell
//     once per session, and nothing LVS derives goes to a store);
//   - instance netlists stitch together where connectors coincide
//     (abutment and routing place joined connectors on the same point)
//     and where material crosses an abutted seam — occurrences whose
//     placed bounding boxes touch, the same contract the design-rule
//     checker trusts;
//   - the editor's retained Connection records (core.Editor.Declared)
//     union the nets they name whether or not the layout still
//     realizes them, so a connection a later MOVE silently destroyed
//     surfaces as an open instead of vanishing from both sides.
//
// Comparison is hierarchical. Each distinct leaf gets a certificate
// derived once from its reference entry (certificate.go): for a leaf
// the reference IS the standalone extraction, so the leaf matches
// itself under the identity net map and no one-time match runs.
// Occurrences of certified cells are settled by device alignment and
// a directly-checked boundary bijection, and only the un-certified
// residual enters the generic matcher. That matcher is Gemini-style
// canonical labeling: both netlists are series/parallel-reduced
// (stacked and paralleled transistors collapse into compound devices,
// so device order and source/drain orientation never matter), then a
// partition refinement iteratively colors the bipartite net/device
// graph of both sides in one shared color space, seeded with the
// connector labels the two sides share and the certificates' boundary
// anchors. Classes whose member counts differ between the sides are
// mismatches; equal partitions are proven by an explicit net-to-net
// matching produced through deterministic individualization. Reports
// are stable: every tie-break follows net numbering, which both
// derivations produce deterministically.
//
// Labels travel as tables on both sides: one net per label site, in
// the order internal/core enumerates the sites. The certified path
// compares the two tables site by site and formats no name; names are
// built only where the flat comparison or a report reads them.
//
// Mismatch diagnostics are structural, not a bare fail: shorts (two
// declared nets merged in the layout), opens (one declared net split),
// swapped connector pairs, and unmatched net/device classes, each with
// the labels and devices involved. A certified comparison that finds
// any inconsistency reruns flat, so diagnostics always come in
// leaf-level terms and verdicts are identical to certificate-free
// runs.
//
// The abutment seam trust reaches as deep into each occurrence as the
// seam's own geometry requires: the base contract reach (seam.Reach)
// for plainly abutted boxes, the overlap depth for an ABUT OVERLAP —
// derived per seam from the two placed boxes, so deliberate deep
// overlaps verify clean. (Earlier revisions capped the reach at a
// fixed 4 lambda and mis-reported deeper sanctioned contacts as
// shorts.)
package lvs

import (
	"riot/internal/core"
	"riot/internal/extract"
	"riot/internal/sticks"
)

// Device is one netlist transistor: its kind and the nets on its gate
// and channel ends (A and B are interchangeable, as in MOS).
type Device struct {
	Kind sticks.DeviceKind
	Gate int
	A, B int
}

// Netlist is one side of a comparison: a dense net space, the device
// list, and the connector labels that resolved to nets. Both the
// layout side (FromCircuit) and the reference side (Reference.Netlist)
// produce this form. Sites is the label table over the cell's label
// sites (core's site order, -1 where a site resolved to no net), which
// the certified comparison walks site by site; Labels is its name map,
// which the name-keyed Compare reads and which only callers that
// compare by name derive (core.LabelMap).
type Netlist struct {
	NetCount int
	Devices  []Device
	Sites    []int32
	Labels   map[string]int
}

// FromCircuit adapts a circuit extracted from cell to the comparison
// form, its label table named through the cell.
func FromCircuit(c *extract.Circuit, cell *core.Cell) *Netlist {
	n := &Netlist{NetCount: c.NetCount, Sites: c.Sites, Labels: c.NetOf(cell)}
	n.Devices = make([]Device, len(c.Transistors))
	for i, t := range c.Transistors {
		n.Devices[i] = Device{Kind: t.Kind, Gate: t.Gate, A: t.A, B: t.B}
	}
	return n
}
