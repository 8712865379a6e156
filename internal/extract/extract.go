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
//   - same-layer touching material is unioned into nets by a per-layer
//     sweep-line over rectangle x-extents with a union-by-rank,
//     path-compressing union-find — O(n log n + k) instead of the
//     all-pairs O(n^2) touch test;
//   - contacts, device probes and connector labels resolve points to
//     fragments through per-layer geom.Index point location.
//
// The flat solver and the hierarchical engine's certificate builder
// (CellSolve) run the same fragment-and-sweep pipeline. The
// tests keep a quadratic reference (all-device fragmentation, the
// all-pairs touch test, linear point scans) and require byte-identical
// circuits and fragment lists from both.
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

// Circuit is the extracted netlist. Nets are dense integers; NetOf
// maps connector labels ("OUT" on the cell itself, "inst.CONN" for
// instance connectors) to nets.
type Circuit struct {
	NetCount    int
	Transistors []Transistor
	NetOf       map[string]int
}

// SameNet reports whether two labelled connectors are electrically
// connected.
func (c *Circuit) SameNet(a, b string) bool {
	na, okA := c.NetOf[a]
	nb, okB := c.NetOf[b]
	return okA && okB && na == nb
}

// Net returns the net of a label and whether the label resolved to any
// material.
func (c *Circuit) Net(label string) (int, bool) {
	n, ok := c.NetOf[label]
	return n, ok
}

// FromCell extracts the circuit of a cell. Labels cover the cell's own
// connectors and, for composition cells, every instance connector
// ("inst.CONN").
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
