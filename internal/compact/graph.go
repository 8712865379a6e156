// Package compact is the stick optimizer Riot delegates stretching to —
// the stand-in for REST (Mosteller 1981). It performs one-dimensional
// virtual-grid compaction of Sticks cells under difference constraints:
// every distinct coordinate on the chosen axis becomes a variable, the
// Mead & Conway spacing rules between interacting features become
// lower-bound edges, and the system is solved by Bellman-Ford longest
// path with positive-cycle (infeasibility) detection.
//
// Riot's STRETCH command uses the Pin mechanism: connector coordinates
// are pinned to exact target positions ("the new constraints on the
// connector positions are put into the Stick file ... which moves the
// connectors to the constrained locations"), and the rest of the cell
// re-spaces itself legally around them.
package compact

import "fmt"

// edge is a lower-bound difference constraint: x[to] - x[from] >= min.
type edge struct {
	from, to int
	min      int
}

// Graph is a system of difference constraints over n variables.
// Variables are identified by index 0..n-1.
type Graph struct {
	n     int
	edges []edge
}

// NewGraph returns an empty constraint system over n variables.
func NewGraph(n int) *Graph { return &Graph{n: n} }

// N returns the number of variables.
func (g *Graph) N() int { return g.n }

// AddMin adds the constraint x[to] - x[from] >= min.
func (g *Graph) AddMin(from, to, min int) {
	g.edges = append(g.edges, edge{from, to, min})
}

// AddExact adds the constraint x[to] - x[from] == d (two opposing
// lower bounds).
func (g *Graph) AddExact(from, to, d int) {
	g.AddMin(from, to, d)
	g.AddMin(to, from, -d)
}

// Solve computes the smallest non-negative assignment satisfying every
// constraint, with the given variables pinned to exact values. It
// returns an error when the system is infeasible: a positive cycle, or
// a pin below a variable's forced minimum.
//
// The solution is the longest path from a virtual source node that
// bounds every variable below by zero; pinned variables are tied to the
// source with a pair of exact edges.
func (g *Graph) Solve(pins map[int]int) ([]int, error) {
	src := g.n // virtual source node, position 0
	edges := make([]edge, 0, len(g.edges)+g.n+2*len(pins))
	edges = append(edges, g.edges...)
	for i := 0; i < g.n; i++ {
		edges = append(edges, edge{src, i, 0}) // x[i] >= 0
	}
	for v, p := range pins {
		if v < 0 || v >= g.n {
			return nil, fmt.Errorf("compact: pin of unknown variable %d", v)
		}
		edges = append(edges, edge{src, v, p})  // x[v] >= p
		edges = append(edges, edge{v, src, -p}) // x[v] <= p
	}

	// Bellman-Ford longest path from src. Every node is reachable from
	// src via the >=0 edges, so initializing everything to 0 (the
	// source's fixed position) is a valid lower bound to relax upward
	// from.
	x := make([]int, g.n+1)
	relaxed := true
	for round := 0; round <= g.n+1 && relaxed; round++ {
		relaxed = false
		for _, e := range edges {
			if want := x[e.from] + e.min; want > x[e.to] {
				x[e.to] = want
				relaxed = true
			}
		}
	}
	if relaxed {
		return nil, fmt.Errorf("compact: constraints are infeasible (positive cycle)")
	}
	if x[src] != 0 {
		return nil, fmt.Errorf("compact: pins are infeasible (a pinned variable is forced past its pin)")
	}
	return x[:g.n], nil
}
