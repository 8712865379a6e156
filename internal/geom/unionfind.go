package geom

// UnionFind is a union-by-rank, path-compressing disjoint-set forest —
// the companion to Index for connectivity workloads: Index.Pairs finds
// the rectangles that touch, and UnionFind merges them into components
// (electrical nets, touch components). Find is effectively O(1)
// amortized, and union by rank keeps the forest shallow on adversarial
// union orders. The partition does not depend on the union order, and
// Dense numbers it by first element, so callers that read sets through
// Dense get the same numbers whatever order their pairs arrived in.
// The circuit extractor and the design-rule checker both build on it.
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

// Dense numbers the sets densely in order of first appearance over the
// elements 0..n-1 and returns each element's set number and the number
// of sets.
func (u *UnionFind) Dense() ([]int32, int) {
	n := len(u.parent)
	num := make([]int32, n) // root -> set number, -1 until seen
	for i := range num {
		num[i] = -1
	}
	sets := 0
	of := make([]int32, n)
	for i := range of {
		r := u.Find(i)
		if num[r] < 0 {
			num[r] = int32(sets)
			sets++
		}
		of[i] = num[r]
	}
	return of, sets
}
