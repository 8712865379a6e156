package geom

// UnionFind is a union-by-rank, path-compressing disjoint-set forest —
// the companion to Index for connectivity workloads: once a spatial
// query has found the rectangles that touch, UnionFind merges them
// into components (electrical nets, merged mask regions). Find is
// effectively O(1) amortized, and union by rank keeps the forest
// shallow on adversarial union orders. The circuit extractor and the
// design-rule checker both build on it.
type UnionFind struct {
	parent []int
	rank   []uint8
}

// NewUnionFind returns a forest of n singleton sets, labelled 0..n-1.
func NewUnionFind(n int) *UnionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &UnionFind{p, make([]uint8, n)}
}

// Find returns the representative of x's set.
func (u *UnionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Union merges the sets holding a and b.
func (u *UnionFind) Union(a, b int) {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return
	}
	switch {
	case u.rank[ra] < u.rank[rb]:
		u.parent[ra] = rb
	case u.rank[ra] > u.rank[rb]:
		u.parent[rb] = ra
	default:
		u.parent[rb] = ra
		u.rank[ra]++
	}
}
