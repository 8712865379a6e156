package drc

import (
	"sort"

	"riot/internal/geom"
)

// Rectilinear region calculus: union, complement, dilation and
// difference over sets of axis-aligned rectangles, all represented as
// disjoint "slabs" (maximal-per-band rectangles). Every operation is a
// sweep over y-bands — the elementary horizontal strips between
// consecutive distinct y coordinates — with interval arithmetic on the
// x-extents inside each band. Slabs spanning vertically adjacent bands
// with identical x-extents are coalesced, so grid-regular designs stay
// compact.
//
// The width checker runs this calculus in doubled coordinates (see
// drc.go), which keeps every intermediate region non-degenerate; the
// helpers here therefore drop empty rectangles freely.

// span is a closed x-interval [lo, hi].
type span struct{ lo, hi int }

// mergeSpans sorts spans and merges overlapping or touching ones
// (closed intervals: [a,b] and [b,c] join).
func mergeSpans(sp []span) []span {
	if len(sp) < 2 {
		return sp
	}
	sort.Slice(sp, func(i, j int) bool { return sp[i].lo < sp[j].lo })
	out := sp[:1]
	for _, s := range sp[1:] {
		if s.lo <= out[len(out)-1].hi {
			if s.hi > out[len(out)-1].hi {
				out[len(out)-1].hi = s.hi
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// subtractSpans returns a minus b; both inputs must be merged and
// sorted. The result keeps closed-interval boundaries (subtracting
// [0,3] from [0,10] leaves [3,10]).
func subtractSpans(a, b []span) []span {
	var out []span
	bi := 0
	for _, s := range a {
		lo := s.lo
		for bi < len(b) && b[bi].hi <= lo {
			bi++
		}
		// walk b intervals overlapping s; bi may be shared across later
		// a-spans, so probe forward without consuming
		for k := bi; k < len(b) && b[k].lo < s.hi; k++ {
			if b[k].hi <= lo {
				continue
			}
			if b[k].lo > lo {
				out = append(out, span{lo, b[k].lo})
			}
			if b[k].hi > lo {
				lo = b[k].hi
			}
			if lo >= s.hi {
				break
			}
		}
		if lo < s.hi {
			out = append(out, span{lo, s.hi})
		}
	}
	return out
}

// bandRegion assembles a slab region from a band decomposition: ys is
// the sorted, de-duplicated list of band boundaries, and intervalsOf
// returns the merged x-intervals covering band [y0, y1). Slabs in
// consecutive bands with identical x-extents coalesce vertically.
func bandRegion(ys []int, intervalsOf func(y0, y1 int) []span) []geom.Rect {
	var out []geom.Rect
	// open[span] = index in out of the slab still growing downward
	open := map[span]int{}
	prevY := 0
	havePrev := false
	for i := 0; i+1 < len(ys); i++ {
		y0, y1 := ys[i], ys[i+1]
		sp := intervalsOf(y0, y1)
		next := make(map[span]int, len(sp))
		for _, s := range sp {
			if s.lo >= s.hi {
				continue
			}
			if havePrev && prevY == y0 {
				if idx, ok := open[s]; ok {
					out[idx].Max.Y = y1
					next[s] = idx
					continue
				}
			}
			out = append(out, geom.R(s.lo, y0, s.hi, y1))
			next[s] = len(out) - 1
		}
		open = next
		prevY = y1
		havePrev = true
	}
	return out
}

// yBands collects the sorted unique y coordinates of a rect set.
func yBands(rects []geom.Rect, extra ...int) []int {
	ys := make([]int, 0, 2*len(rects)+len(extra))
	for _, r := range rects {
		ys = append(ys, r.Min.Y, r.Max.Y)
	}
	ys = append(ys, extra...)
	sort.Ints(ys)
	out := ys[:0]
	for i, y := range ys {
		if i == 0 || y != out[len(out)-1] {
			out = append(out, y)
		}
	}
	return out
}

// bandScanner yields each ascending band's merged x-spans through a
// y-sweep: rectangles enter the active set when the sweep reaches
// their Min.Y and leave when it passes their Max.Y, so a region
// operation costs O(bands x active) instead of rescanning the whole
// rectangle list for every band. Bands must be requested in ascending
// order — exactly how bandRegion iterates.
type bandScanner struct {
	rects  []geom.Rect
	order  []int // rect indices sorted by Min.Y
	next   int
	active []int
	buf    []span
}

func newBandScanner(rects []geom.Rect) *bandScanner {
	order := make([]int, len(rects))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return rects[order[a]].Min.Y < rects[order[b]].Min.Y })
	return &bandScanner{rects: rects, order: order}
}

// spans returns the merged x-intervals of the rects spanning band
// [y0, y1]. The result is valid until the next call.
func (s *bandScanner) spans(y0, y1 int) []span {
	for s.next < len(s.order) && s.rects[s.order[s.next]].Min.Y <= y0 {
		s.active = append(s.active, s.order[s.next])
		s.next++
	}
	// expire rects the sweep has passed; keep the rest in place
	kept := s.active[:0]
	s.buf = s.buf[:0]
	for _, id := range s.active {
		r := s.rects[id]
		if r.Max.Y <= y0 {
			continue
		}
		kept = append(kept, id)
		if r.Max.Y >= y1 && r.Min.X < r.Max.X {
			s.buf = append(s.buf, span{r.Min.X, r.Max.X})
		}
	}
	s.active = kept
	return mergeSpans(s.buf)
}

// MergeRegion returns the union of rects as disjoint slabs.
func MergeRegion(rects []geom.Rect) []geom.Rect {
	rects = dropEmpty(rects)
	if len(rects) == 0 {
		return nil
	}
	sc := newBandScanner(rects)
	return bandRegion(yBands(rects), sc.spans)
}

// regionComplement returns frame minus the union of rects (clipped to
// the frame), as disjoint slabs.
func regionComplement(rects []geom.Rect, frame geom.Rect) []geom.Rect {
	var clipped []geom.Rect
	for _, r := range rects {
		if c := r.Intersect(frame); !c.Empty() {
			clipped = append(clipped, c)
		}
	}
	ys := yBands(clipped, frame.Min.Y, frame.Max.Y)
	// trim bands outside the frame
	lo := sort.SearchInts(ys, frame.Min.Y)
	hi := sort.SearchInts(ys, frame.Max.Y)
	ys = ys[lo : hi+1]
	whole := []span{{frame.Min.X, frame.Max.X}}
	sc := newBandScanner(clipped)
	return bandRegion(ys, func(y0, y1 int) []span {
		return subtractSpans(whole, sc.spans(y0, y1))
	})
}

// SubtractRegion returns the union of a minus the union of b, as
// disjoint slabs.
func SubtractRegion(a, b []geom.Rect) []geom.Rect {
	a = dropEmpty(a)
	if len(a) == 0 {
		return nil
	}
	ys := yBands(append(append([]geom.Rect(nil), a...), b...))
	sa, sb := newBandScanner(a), newBandScanner(b)
	return bandRegion(ys, func(y0, y1 int) []span {
		return subtractSpans(sa.spans(y0, y1), sb.spans(y0, y1))
	})
}

// regionDilate inflates every rect by lo on the min sides and hi on
// the max sides (Minkowski sum with the box [-lo, hi] x [-lo, hi]).
// The result may overlap; callers normalize through the band sweep.
func regionDilate(rects []geom.Rect, lo, hi int) []geom.Rect {
	out := make([]geom.Rect, 0, len(rects))
	for _, r := range rects {
		if r.Empty() {
			continue
		}
		out = append(out, geom.Rect{
			Min: geom.Pt(r.Min.X-lo, r.Min.Y-lo),
			Max: geom.Pt(r.Max.X+hi, r.Max.Y+hi),
		})
	}
	return out
}

func dropEmpty(rects []geom.Rect) []geom.Rect {
	out := make([]geom.Rect, 0, len(rects))
	for _, r := range rects {
		if !r.Canon().Empty() {
			out = append(out, r.Canon())
		}
	}
	return out
}
