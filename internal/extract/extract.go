// Package extract recovers a transistor-level circuit from an
// assembled Riot cell: same-layer material that touches is one net,
// contacts join layers, and poly crossing a transistor channel splits
// the diffusion into source and drain.
//
// The original Riot had nothing like this — which is exactly why its
// users "must verify connections with extensive checking". The
// extractor is this reproduction's checking tool: tests use it to
// prove that abutment, routing and stretching really do produce
// electrically connected nets, and the library tests run gate truth
// tables on extracted circuits with a switch-level simulator.
//
// # Algorithm
//
// Extraction consumes the shared flattening layer (internal/flatten),
// which walks the cell hierarchy and emits every mask rectangle,
// device and contact in top-level coordinates. Solving then recovers
// connectivity in one sequential pass:
//
//   - diffusion is fragmented at transistor gates, finding the gates
//     that actually cut each diffusion shape through a spatial index
//     (geom.Index) over the gate strips;
//   - the fragments are indexed per layer (the locator), and every
//     touching same-layer pair the layer's index reports
//     (geom.Index.Pairs) is unioned into one net by a union-by-rank,
//     path-compressing union-find, instead of the all-pairs O(n^2)
//     touch test;
//   - contacts, device probes and connector labels resolve points to
//     fragments through the same per-layer indexes.
//
// Nets are numbered densely by first fragment, so the circuit does not
// depend on the order the pairs are found in. The flat solver and the
// hierarchical engine's certificate builder (CellSolve) run the same
// pipeline. The tests keep a quadratic reference (all-device
// fragmentation, the all-pairs touch test, linear point scans) and
// require byte-identical circuits and fragment lists from both.
package extract

import (
	"riot/internal/core"
	"riot/internal/flatten"
	"riot/internal/geom"
	"riot/internal/sticks"
)

// Transistor is one extracted device: its kind, the net driving its
// gate, and the nets on either end of its channel.
type Transistor struct {
	Kind sticks.DeviceKind
	Gate int
	A, B int // source/drain (interchangeable in MOS)
}

// Circuit is the extracted netlist. Nets are dense integers. Sites is
// the label table: one net per label site of the extracted cell (core's
// site order: the connectors core.LabelHead returns, then every
// instance connector), -1 where the site lies on no material of its
// layer. Labels carry names only through the cell: NetOf, Net and
// SameNet take it.
type Circuit struct {
	NetCount    int
	Transistors []Transistor
	Sites       []int32
}

// NetOf maps the labels of cell, the cell the circuit was extracted
// from, to nets: the cell's own connectors ("OUT") and, for a
// composition, every instance connector ("inst.CONN", array copies
// suffixed). A name repeated across sites keeps its last resolved
// site's net; unresolved labels are absent.
func (c *Circuit) NetOf(cell *core.Cell) map[string]int {
	return core.LabelMap(cell, c.Sites)
}

// SameNet reports whether two labelled connectors of cell are
// electrically connected.
func (c *Circuit) SameNet(cell *core.Cell, a, b string) bool {
	m := c.NetOf(cell)
	na, okA := m[a]
	nb, okB := m[b]
	return okA && okB && na == nb
}

// Net returns the net of a label of cell and whether the label
// resolved to any material.
func (c *Circuit) Net(cell *core.Cell, label string) (int, bool) {
	n, ok := c.NetOf(cell)[label]
	return n, ok
}

// FromCell extracts the circuit of a cell.
func FromCell(c *core.Cell) (*Circuit, error) {
	fr, err := flatten.Cell(c)
	if err != nil {
		return nil, err
	}
	return Solve(fr)
}

// Solve extracts the circuit of an already flattened design: FromCell
// minus the flatten, for callers that share one flatten.Result with
// the design-rule checker.
func Solve(fr *flatten.Result) (*Circuit, error) {
	ckt, _, _, err := solve(fr)
	return ckt, err
}

// NetShape is one solved fragment of mask material with the net it
// landed on: the geometry-to-net map behind a Circuit. Src is the
// flatten occurrence id of the leaf that produced the material.
type NetShape struct {
	Layer geom.Layer
	R     geom.Rect
	Src   int
	Net   int32
}

// SolveNets extracts a flattened design's circuit together with its
// per-fragment net map. The LVS reference derivation (internal/lvs)
// uses the fragments to stitch leaf-cell netlists across abutment
// seams: a net is reachable from every rectangle that carries it.
func SolveNets(fr *flatten.Result) (*Circuit, []NetShape, error) {
	ckt, frags, nets, err := solve(fr)
	if err != nil {
		return nil, nil, err
	}
	out := make([]NetShape, len(frags))
	for i, f := range frags {
		out[i] = NetShape{Layer: f.Layer, R: f.R, Src: f.Src, Net: nets[i]}
	}
	return ckt, out, nil
}
