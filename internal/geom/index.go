package geom

import "math"

// Index is a uniform-grid spatial index over integer rectangles. It
// answers the three questions every hot geometry path in Riot asks —
// "which rectangles touch this rectangle?", "which rectangles contain
// this point?" and "which pairs of rectangles touch, or come within a
// halo of each other?" — from the bins a rectangle occupies instead
// of a scan over the whole shape set.
//
// The index is built over a batch of rectangles: Insert rectangles
// (each gets a dense integer id in insertion order), then query.
// Building is lazy — the first query after an Insert rebins everything
// — so the typical collect-then-query usage pays one build.
//
// Geometry follows the package's closed-interval convention: a query
// reports every rectangle that Touches the query rectangle (shared
// edges and corners included), matching the electrical-connectivity
// rule that edge-adjacent material on one mask layer is connected.
//
// The grid aims at about one rectangle per bin, and a bin is never
// smaller than the mean rectangle extent on either axis, so a
// rectangle of mean size or less spans at most two bins a side and a
// set of long strips fills a few bins each, not every bin it crosses.
// Rectangles much larger than the mean still occupy one bin entry per
// bin they cover, and material piled into one bin is scanned whole by
// every query reaching that bin. An Index is not safe for concurrent
// use.
type Index struct {
	rects []Rect

	built  bool
	bounds Rect
	nx, ny int // grid dimensions
	cw, ch int // bin size in design units
	// bins in compressed-sparse-row layout: bin b's ids are
	// binIDs[binStart[b]:binStart[b+1]]. One backing array instead of
	// one slice per bin keeps the build allocation-free past the two
	// arrays and the scan cache-local.
	binStart []int32
	binIDs   []int32
	fill     []int32  // build scratch, reused across rebuilds
	stamp    []uint32 // per-id visit marker, keyed by epoch
	epoch    uint32
}

// grownI32 returns s resized to n, reusing its backing array when
// large enough; contents are zeroed.
func grownI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// NewIndex returns an empty index.
func NewIndex() *Index { return &Index{} }

// NewIndexFrom returns an index over a copy of the given rectangles;
// ids are the slice indices. Rectangles are normalized on the way in,
// exactly as Insert does.
func NewIndexFrom(rects []Rect) *Index {
	ix := &Index{rects: make([]Rect, len(rects))}
	for i, r := range rects {
		ix.rects[i] = r.Canon()
	}
	return ix
}

// Insert adds a rectangle and returns its id (dense, in insertion
// order). Inserting invalidates the built grid; the next query
// rebuilds it.
func (ix *Index) Insert(r Rect) int {
	ix.rects = append(ix.rects, r.Canon())
	ix.built = false
	return len(ix.rects) - 1
}

// Len returns the number of indexed rectangles.
func (ix *Index) Len() int { return len(ix.rects) }

// RectOf returns the rectangle stored under id.
func (ix *Index) RectOf(id int) Rect { return ix.rects[id] }

// Build bins every rectangle into the uniform grid. Calling Build is
// optional — queries build on demand — but lets callers front-load the
// cost.
func (ix *Index) Build() {
	n := len(ix.rects)
	ix.built = true
	ix.epoch = 0
	if n == 0 {
		ix.nx, ix.ny = 0, 0
		ix.binStart, ix.binIDs = nil, nil
		ix.stamp = nil
		return
	}
	b := ix.rects[0]
	sw, sh := 0, 0 // summed extents
	for _, r := range ix.rects {
		b = Rect{
			Point{min(b.Min.X, r.Min.X), min(b.Min.Y, r.Min.Y)},
			Point{max(b.Max.X, r.Max.X), max(b.Max.Y, r.Max.Y)},
		}
		sw += r.W()
		sh += r.H()
	}
	ix.bounds = b
	// Aim for about one rectangle per bin on a square-ish grid, capped
	// so pathological counts cannot allocate an absurd grid, with bins
	// no smaller than the mean rectangle extent on each axis.
	side := min(int(math.Sqrt(float64(n)))+1, 2048)
	ix.cw = max(b.W()/side, sw/n) + 1
	ix.ch = max(b.H()/side, sh/n) + 1
	ix.nx, ix.ny = b.W()/ix.cw+1, b.H()/ix.ch+1
	if cap(ix.stamp) >= n {
		ix.stamp = ix.stamp[:n]
		for i := range ix.stamp {
			ix.stamp[i] = 0
		}
	} else {
		ix.stamp = make([]uint32, n)
	}
	// counting pass, then a prefix-sum fill: two passes over the bin
	// entries build the CSR layout without per-bin reallocation; the
	// arrays are reused across rebuilds
	start := grownI32(ix.binStart, ix.nx*ix.ny+1)
	for _, r := range ix.rects {
		x0, y0 := ix.col(r.Min.X), ix.row(r.Min.Y)
		x1, y1 := ix.col(r.Max.X), ix.row(r.Max.Y)
		for y := y0; y <= y1; y++ {
			row := y * ix.nx
			for x := x0; x <= x1; x++ {
				start[row+x+1]++
			}
		}
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	total := int(start[len(start)-1])
	var ids []int32
	if cap(ix.binIDs) >= total {
		ids = ix.binIDs[:total]
	} else {
		ids = make([]int32, total)
	}
	fill := grownI32(ix.fill, ix.nx*ix.ny)
	for id, r := range ix.rects {
		x0, y0 := ix.col(r.Min.X), ix.row(r.Min.Y)
		x1, y1 := ix.col(r.Max.X), ix.row(r.Max.Y)
		for y := y0; y <= y1; y++ {
			row := y * ix.nx
			for x := x0; x <= x1; x++ {
				bin := row + x
				ids[start[bin]+fill[bin]] = int32(id)
				fill[bin]++
			}
		}
	}
	ix.binStart, ix.binIDs, ix.fill = start, ids, fill
}

// col maps an x coordinate to a grid column, clamped to the grid.
func (ix *Index) col(x int) int {
	c := (x - ix.bounds.Min.X) / ix.cw
	if c < 0 {
		return 0
	}
	if c >= ix.nx {
		return ix.nx - 1
	}
	return c
}

// row maps a y coordinate to a grid row, clamped to the grid.
func (ix *Index) row(y int) int {
	r := (y - ix.bounds.Min.Y) / ix.ch
	if r < 0 {
		return 0
	}
	if r >= ix.ny {
		return ix.ny - 1
	}
	return r
}

// nextEpoch advances the per-query visit marker, resetting the stamps
// on the (practically unreachable) wraparound.
func (ix *Index) nextEpoch() uint32 {
	ix.epoch++
	if ix.epoch == 0 {
		for i := range ix.stamp {
			ix.stamp[i] = 0
		}
		ix.epoch = 1
	}
	return ix.epoch
}

// QueryRect calls fn once for each rectangle that touches q (shared
// edges and corners count). fn returning false stops the query. Ids
// arrive in grid-scan order, not sorted; callers that need the lowest
// id must track the minimum themselves.
func (ix *Index) QueryRect(q Rect, fn func(id int) bool) {
	ix.query(q, -1, fn)
}

// query is QueryRect restricted to the ids above after.
func (ix *Index) query(q Rect, after int, fn func(id int) bool) {
	if !ix.built {
		ix.Build()
	}
	if len(ix.rects) == 0 {
		return
	}
	q = q.Canon()
	if !ix.bounds.Touches(q) {
		return
	}
	epoch := ix.nextEpoch()
	x0, y0 := ix.col(q.Min.X), ix.row(q.Min.Y)
	x1, y1 := ix.col(q.Max.X), ix.row(q.Max.Y)
	for y := y0; y <= y1; y++ {
		row := y * ix.nx
		for x := x0; x <= x1; x++ {
			bin := row + x
			for _, id := range ix.binIDs[ix.binStart[bin]:ix.binStart[bin+1]] {
				if int(id) <= after || ix.stamp[id] == epoch {
					continue
				}
				ix.stamp[id] = epoch
				if ix.rects[id].Touches(q) && !fn(int(id)) {
					return
				}
			}
		}
	}
}

// QueryPoint calls fn once for each rectangle containing p (boundary
// included). fn returning false stops the query.
func (ix *Index) QueryPoint(p Point, fn func(id int) bool) {
	if !ix.built {
		ix.Build()
	}
	if len(ix.rects) == 0 || !ix.bounds.Contains(p) {
		return
	}
	bin := ix.row(p.Y)*ix.nx + ix.col(p.X)
	for _, id := range ix.binIDs[ix.binStart[bin]:ix.binStart[bin+1]] {
		if ix.rects[id].Contains(p) && !fn(int(id)) {
			return
		}
	}
}

// Pairs calls fn(i, j), i < j, once for every unordered pair of
// indexed rectangles within halo of each other: rectangle i grown by
// halo on every side touches rectangle j, so halo 0 reports the
// touching pairs (shared edges and corners count) and a positive halo
// every pair whose gap is at most halo on both axes. Pairs arrive by
// ascending i, each i's partners in grid-scan order; i's query skips
// the ids up to i before testing, so each pair is tested once.
func (ix *Index) Pairs(halo int, fn func(i, j int)) {
	for i, r := range ix.rects {
		ix.query(r.Inset(-halo), i, func(j int) bool {
			fn(i, j)
			return true
		})
	}
}
