package geom

import (
	"math/rand"
	"sort"
	"testing"
)

func collectRect(ix *Index, q Rect) []int {
	var got []int
	ix.QueryRect(q, func(id int) bool { got = append(got, id); return true })
	sort.Ints(got)
	return got
}

func collectPoint(ix *Index, p Point) []int {
	var got []int
	ix.QueryPoint(p, func(id int) bool { got = append(got, id); return true })
	sort.Ints(got)
	return got
}

func bruteRect(rects []Rect, q Rect) []int {
	var got []int
	for i, r := range rects {
		if r.Touches(q) {
			got = append(got, i)
		}
	}
	return got
}

func brutePoint(rects []Rect, p Point) []int {
	var got []int
	for i, r := range rects {
		if r.Contains(p) {
			got = append(got, i)
		}
	}
	return got
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIndexEmpty(t *testing.T) {
	ix := NewIndex()
	if got := collectRect(ix, R(0, 0, 10, 10)); got != nil {
		t.Errorf("empty QueryRect = %v", got)
	}
	if got := collectPoint(ix, Pt(3, 3)); got != nil {
		t.Errorf("empty QueryPoint = %v", got)
	}
}

func TestIndexEdgeTouch(t *testing.T) {
	// Two rects sharing only an edge, one sharing only a corner: the
	// electrical rule counts both as touching.
	ix := NewIndexFrom([]Rect{
		R(0, 0, 10, 10),   // 0
		R(10, 0, 20, 10),  // 1: shares the x=10 edge with 0
		R(10, 10, 20, 20), // 2: shares only the corner (10,10) with 0
		R(30, 30, 40, 40), // 3: far away
	})
	if got := collectRect(ix, R(0, 0, 10, 10)); !sameInts(got, []int{0, 1, 2}) {
		t.Errorf("QueryRect = %v, want [0 1 2]", got)
	}
	if got := collectPoint(ix, Pt(10, 10)); !sameInts(got, []int{0, 1, 2}) {
		t.Errorf("QueryPoint corner = %v, want [0 1 2]", got)
	}
	if got := collectPoint(ix, Pt(35, 35)); !sameInts(got, []int{3}) {
		t.Errorf("QueryPoint = %v, want [3]", got)
	}
}

func TestIndexInsertInvalidates(t *testing.T) {
	ix := NewIndex()
	ix.Insert(R(0, 0, 5, 5))
	if got := collectPoint(ix, Pt(2, 2)); !sameInts(got, []int{0}) {
		t.Fatalf("first query = %v", got)
	}
	// Insert after a build: the grid must rebuild and see the new rect
	// even though it falls outside the first build's bounds.
	id := ix.Insert(R(100, 100, 110, 110))
	if id != 1 {
		t.Fatalf("second id = %d", id)
	}
	if got := collectPoint(ix, Pt(105, 105)); !sameInts(got, []int{1}) {
		t.Errorf("post-insert query = %v, want [1]", got)
	}
}

func TestIndexEarlyStop(t *testing.T) {
	ix := NewIndexFrom([]Rect{R(0, 0, 10, 10), R(0, 0, 10, 10), R(0, 0, 10, 10)})
	calls := 0
	ix.QueryRect(R(0, 0, 10, 10), func(id int) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("early-stop QueryRect made %d calls", calls)
	}
	calls = 0
	ix.QueryPoint(Pt(5, 5), func(id int) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("early-stop QueryPoint made %d calls", calls)
	}
}

// soupRects returns n random rectangles: heavy overlap, degenerate
// (zero-area) rects, negative coordinates, and one in eight a long
// horizontal or vertical strip across most of the soup.
func soupRects(rng *rand.Rand, n int) []Rect {
	rects := make([]Rect, n)
	for i := range rects {
		x, y := rng.Intn(400)-200, rng.Intn(400)-200
		w, h := rng.Intn(60), rng.Intn(60)
		switch rng.Intn(16) {
		case 0:
			x, w = -200+rng.Intn(40), 300+rng.Intn(100)
		case 1:
			y, h = -200+rng.Intn(40), 300+rng.Intn(100)
		}
		rects[i] = R(x, y, x+w, y+h)
	}
	return rects
}

// TestIndexRandomized cross-checks the grid against the brute-force
// scan it replaces, on rect soups with heavy overlap, long strips,
// degenerate (zero-area) rects, and negative coordinates.
func TestIndexRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		rects := soupRects(rng, 1+rng.Intn(200))
		ix := NewIndexFrom(rects)
		for q := 0; q < 50; q++ {
			x, y := rng.Intn(500)-250, rng.Intn(500)-250
			qr := R(x, y, x+rng.Intn(100), y+rng.Intn(100))
			if got, want := collectRect(ix, qr), bruteRect(rects, qr); !sameInts(got, want) {
				t.Fatalf("trial %d: QueryRect(%v) = %v, want %v", trial, qr, got, want)
			}
			p := Pt(x, y)
			if got, want := collectPoint(ix, p), brutePoint(rects, p); !sameInts(got, want) {
				t.Fatalf("trial %d: QueryPoint(%v) = %v, want %v", trial, p, got, want)
			}
		}
	}
}

// TestIndexPairsMatchesAllPairs cross-checks Pairs against the
// all-pairs scan, at halo 0 (touching pairs) and at positive halos:
// every pair within the halo is reported exactly once, as (i, j) with
// i < j, and no other pair is.
func TestIndexPairsMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		rects := soupRects(rng, 1+rng.Intn(150))
		ix := NewIndexFrom(rects)
		for _, halo := range []int{0, 1, 7} {
			seen := map[[2]int]int{}
			ix.Pairs(halo, func(i, j int) { seen[[2]int{i, j}]++ })
			want := 0
			for i, a := range rects {
				for j := i + 1; j < len(rects); j++ {
					if !a.Inset(-halo).Touches(rects[j].Canon()) {
						continue
					}
					want++
					if seen[[2]int{i, j}] != 1 {
						t.Fatalf("trial %d halo %d: pair (%d, %d) %v %v reported %d times",
							trial, halo, i, j, a, rects[j], seen[[2]int{i, j}])
					}
				}
			}
			if len(seen) != want {
				t.Fatalf("trial %d halo %d: %d pairs reported, want %d", trial, halo, len(seen), want)
			}
		}
	}
}

// TestIndexLongStripsBins: long rectangles must not be copied into
// every bin they cross. Bins sized from the bounding box alone put
// each of these 1000 overlapping strips into some 930 bins (931,860
// entries); bins no smaller than the mean extent keep it to two.
func TestIndexLongStripsBins(t *testing.T) {
	const n = 1000
	rects := make([]Rect, n)
	for i := range rects {
		rects[i] = R(10*i, 0, 100000+10*i, 400)
	}
	ix := NewIndexFrom(rects)
	ix.Build()
	if got := len(ix.binIDs); got > 4*n {
		t.Fatalf("%d strips fill %d bin entries, want at most %d", n, got, 4*n)
	}
	if got := collectRect(ix, R(50000, 200, 50000, 200)); len(got) != n {
		t.Fatalf("a point inside every strip touches %d of them, want %d", len(got), n)
	}
}

func BenchmarkIndexQueryRect(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	rects := make([]Rect, 10000)
	for i := range rects {
		x, y := rng.Intn(100000), rng.Intn(100000)
		rects[i] = R(x, y, x+rng.Intn(500), y+rng.Intn(500))
	}
	ix := NewIndexFrom(rects)
	ix.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := rects[i%len(rects)]
		ix.QueryRect(q, func(int) bool { return true })
	}
}

// TestIndexDegenerateRects: zero-area rectangles (points and lines)
// are legal index entries — they must be found by touching queries and
// by point location on their boundary, and they must not corrupt the
// grid build.
func TestIndexDegenerateRects(t *testing.T) {
	ix := NewIndexFrom([]Rect{
		{Min: Pt(5, 5), Max: Pt(5, 5)},    // a point
		{Min: Pt(0, 10), Max: Pt(20, 10)}, // a horizontal line
		{Min: Pt(3, 0), Max: Pt(3, 30)},   // a vertical line
		R(8, 8, 12, 12),                   // a real rect
	})
	if got := collectPoint(ix, Pt(5, 5)); !sameInts(got, []int{0}) {
		t.Errorf("point rect not located: %v", got)
	}
	if got := collectPoint(ix, Pt(10, 10)); !sameInts(got, []int{1, 3}) {
		t.Errorf("line/rect point location = %v, want [1 3]", got)
	}
	if got := collectRect(ix, R(0, 0, 6, 6)); !sameInts(got, []int{0, 2}) {
		t.Errorf("query touching degenerates = %v, want [0 2]", got)
	}
	// a degenerate QUERY rect works too
	if got := collectRect(ix, Rect{Min: Pt(3, 3), Max: Pt(3, 3)}); !sameInts(got, []int{2}) {
		t.Errorf("degenerate query = %v, want [2]", got)
	}
}

// TestIndexNegativeExtentInput: rectangles built with swapped corners
// (Min > Max) are normalized on insertion, both through Insert and
// NewIndexFrom, so queries see the real extent.
func TestIndexNegativeExtentInput(t *testing.T) {
	swapped := Rect{Min: Pt(10, 20), Max: Pt(0, 0)}
	ix := NewIndex()
	id := ix.Insert(swapped)
	if got := ix.RectOf(id); got != R(0, 0, 10, 20) {
		t.Fatalf("Insert stored %v, want normalized", got)
	}
	if got := collectPoint(ix, Pt(5, 5)); !sameInts(got, []int{0}) {
		t.Errorf("point inside swapped rect = %v", got)
	}
	ix2 := NewIndexFrom([]Rect{swapped, {Min: Pt(-5, -5), Max: Pt(-15, -25)}})
	if got := collectPoint(ix2, Pt(-10, -10)); !sameInts(got, []int{1}) {
		t.Errorf("negative-coordinate swapped rect = %v", got)
	}
	if got := collectRect(ix2, R(-20, -20, 20, 20)); !sameInts(got, []int{0, 1}) {
		t.Errorf("touch query over both = %v", got)
	}
}

// TestIndexAllDegenerate: an index holding only a single point rect
// (zero-extent bounds) still builds and answers.
func TestIndexAllDegenerate(t *testing.T) {
	ix := NewIndexFrom([]Rect{{Min: Pt(7, 7), Max: Pt(7, 7)}})
	ix.Build()
	if got := collectPoint(ix, Pt(7, 7)); !sameInts(got, []int{0}) {
		t.Errorf("lone point rect = %v", got)
	}
	if got := collectPoint(ix, Pt(8, 7)); got != nil {
		t.Errorf("miss reported %v", got)
	}
}
