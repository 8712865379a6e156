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
// Comparison is one walk, with the flat matcher behind it. Both sides
// list their devices in flatten's walk order (instances in declaration
// order, array copies x-major, nested cells recursively) and fill one
// label table over the same sites, so the certified path (witness.go)
// walks the two device lists and the two tables index by index: device
// kinds must match, every gate, A and B must bind into one net
// bijection, and every site must be unresolved on both sides or
// resolved on both onto a bound pair. When the walk fails, the flat
// Compare decides. That matcher is Gemini-style canonical labeling:
// both netlists are series/parallel-reduced (stacked and paralleled
// transistors collapse into compound devices, so device order and
// source/drain orientation never matter), then a partition refinement
// iteratively colors the bipartite net/device graph of both sides in
// one shared color space, seeded with the connector labels the two
// sides share. Classes whose member counts differ between the sides are
// mismatches; equal partitions are proven by an explicit net-to-net
// matching produced through deterministic individualization. Reports
// are stable: every tie-break follows net numbering, which both
// derivations produce deterministically.
//
// Soundness of the witness, in three parts:
//
//   - If the witness holds, the netlists are isomorphic with their
//     labels. The bijection maps device i of the reference onto device
//     i of the layout, pin for pin, and every resolved site onto its
//     twin; a net no device and no resolved site touches is dropped by
//     the reduction on both sides alike. Reduction is a function of the
//     abstract graph, so the flat Compare of the two sides would be
//     clean as well. The one exception is Compare's matching budget: a
//     balanced partition it cannot individualize within budget reports
//     KindAmbiguous, where the witness reports clean.
//   - A repeated label name cannot make the witness pass a layout the
//     name-keyed comparison rejects. Each side's name map keeps, per
//     name, the last resolved site of that name. The witness checks
//     every site, shadowed ones included, and requires resolution
//     status to agree site by site, so that last resolved site is the
//     same site on both sides, and its nets are a bound pair. A
//     repeated name can make the witness fail (a shadowed site that
//     disagrees), and then the flat comparison decides.
//   - The trade-off: the witness is all or nothing. A design whose walk
//     order fails to align anywhere — one moved terminal, a reordered
//     device list — compares flat whole; nothing certifies the parts
//     that do align and matches only the rest.
//
// A uniform array skips the stitch and the walk (template_witness.go).
// When the check has no declared records, the top holds one leaf ARRAY
// instance and no extra connector, and the verifier's hier fast path
// composed the circuit over a certificate with no deferred join
// (hier.Lattice; the fast path takes no certificate with a pending
// terminal), the template witness checks facts that do not grow with
// the copies:
//
//  1. Leaf binding: the reference leaf entry and the certificate have
//     one device count and one net count, device k has one kind on
//     both sides, and gate, A and B bind into one bijection β that
//     covers every net, so every leaf net carries a device.
//  2. Ports: every connector k is bound on both sides, and β maps the
//     leaf's bind[k] onto the certificate's port net k.
//  3. Offsets: at every offset either side pairs copies at (the
//     stitch's over port boxes, the lattice's over material boxes; none
//     there: no unions), the reference template's unions mapped through
//     β generate the lattice template's partition of two copies' 2N nets.
//
// Then the walk-order witness would hold, copy by copy, so the Result
// is the one it returns. The closure of a union of relations equals the
// closure of the union of their closures, and both sides apply each
// offset at the same copy pairs, so equal per-offset partitions under β
// make the two composed partitions isomorphic through (copy, r) ↦
// (copy, β(r)). Both sides list devices copy-major in one order, so
// device k of every copy binds each composed class to its image, and
// both fill each copy's label sites from its port nets, so every site
// is resolved on both sides onto an image pair. Every composed class
// holds a net a device touches, so the walk would bind every class:
// RefNets = LayNets = the circuit's net count. Any failed check hands
// the comparison to the stitch and the walk, unchanged.
//
// Labels travel as tables on both sides: one net per label site, in
// the order internal/core enumerates the sites. The witness compares
// the two tables site by site and formats no name; names are built
// only where the flat comparison or a report reads them.
//
// Mismatch diagnostics are structural, not a bare fail: shorts (two
// declared nets merged in the layout), opens (one declared net split),
// swapped connector pairs, and unmatched net/device classes, each with
// the labels and devices involved. Every non-clean verdict comes from
// the flat comparison, so diagnostics always come in leaf-level terms
// and verdicts are identical to witness-free runs.
//
// The abutment seam trust reaches as deep into each occurrence as the
// seam's own geometry requires: the base contract reach (4 lambda) for
// plainly abutted boxes, the overlap depth for an ABUT OVERLAP —
// derived per seam from the two placed boxes alone (seamDepth), so
// deliberate deep overlaps verify clean. A seam reads the material it
// trusts from the entries it joins, by window, so a seam of any depth
// sees all of it, in a cell of any size.
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
// the witness walks site by site; Labels is its name map, which the
// name-keyed Compare reads and which only callers that compare by name
// derive (core.LabelMap).
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
