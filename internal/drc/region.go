package drc

import (
	"cmp"
	"math"
	"slices"

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
// Nothing in the sweep sorts, allocates or hashes per band:
//   - An operand is sorted by (Min.Y, Min.X) once, and a slab list,
//     which arrives in that order, not at all. The active set stays
//     in Min.X order: one pass per band merges the entering
//     rectangles (already in x order, except in the first band of a
//     sweep that starts above some of them) into it, drops the
//     expired ones and yields the band's merged spans and its top, the
//     nearest rectangle start or end. Band boundaries are read off the
//     sweep, never sorted.
//   - Coalescing is one ordered walk. A band's spans arrive sorted and
//     disjoint, and so do the slabs the band below left open, so one
//     merge of the two lists finds every slab a span extends. A map
//     keyed by span finds the same slabs, but it is allocated and
//     hashed once per band, and it dominated the width check's cost.
//   - The scratch (active sets, span lists, open slabs) lives in a
//     sweep value whose buffers persist across bands and across the
//     operations of a chain: WidthResidues runs its merge, both
//     complements and the final difference on one sweep. An operation
//     allocates little beyond its result slabs.
//
// The width checker runs this calculus in doubled coordinates (see
// drc.go), which keeps every intermediate region non-degenerate; the
// helpers here therefore drop empty rectangles freely.

// span is a closed x-interval [lo, hi].
type span struct{ lo, hi int }

// subtractSpans appends a minus b to dst; both inputs must be merged
// and sorted. The result keeps closed-interval boundaries (subtracting
// [0,3] from [0,10] leaves [3,10]).
func subtractSpans(dst, a, b []span) []span {
	bi := 0
	for _, s := range a {
		lo := s.lo
		for bi < len(b) && b[bi].hi <= lo {
			bi++
		}
		// walk b intervals overlapping s; bi may be shared across later
		// a-spans, so probe forward without consuming. Each such b[k]
		// ends past lo: b is merged, so its spans do not touch
		for k := bi; k < len(b) && b[k].lo < s.hi; k++ {
			if b[k].lo > lo {
				dst = append(dst, span{lo, b[k].lo})
			}
			if lo = b[k].hi; lo >= s.hi {
				break
			}
		}
		if lo < s.hi {
			dst = append(dst, span{lo, s.hi})
		}
	}
	return dst
}

// sweep is the reusable state of the band sweep; one sweep serves any
// number of region operations in turn.
type sweep struct {
	a, b       bandScanner
	open, next []openSlab
	diff       []span
}

// openSlab is a slab that may still grow into the next band: its
// span and its index in the output.
type openSlab struct {
	span
	idx int
}

// noBand is the top a band function returns when the sweep is over.
const noBand = math.MaxInt

// bandRegion assembles the slabs of consecutive bands from y0 up:
// band(y) returns the x-spans of the band starting at y, sorted and
// disjoint, and the band's top (noBand ends the sweep). A span equal
// to one the band below left open extends that slab, found by walking
// both lo-ordered lists together; any other span opens a new slab.
func (sw *sweep) bandRegion(out []geom.Rect, y0 int, band func(y int) ([]span, int)) []geom.Rect {
	open := sw.open[:0]
	for {
		sp, y1 := band(y0)
		if y1 == noBand {
			break
		}
		next, k := sw.next[:0], 0
		for _, s := range sp {
			for k < len(open) && open[k].lo < s.lo {
				k++
			}
			if k < len(open) && open[k].span == s {
				out[open[k].idx].Max.Y = y1
				next = append(next, open[k])
				continue
			}
			next = append(next, openSlab{s, len(out)})
			out = append(out, geom.Rect{Min: geom.Pt(s.lo, y0), Max: geom.Pt(s.hi, y1)})
		}
		open, sw.next = next, open
		y0 = y1
	}
	sw.open = open
	if len(out) == 0 {
		return nil
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
	rects         []geom.Rect // the operand, by (Min.Y, Min.X)
	next          int
	active, spare []geom.Rect // by Min.X
	buf           []span
}

func byMinX(a, b geom.Rect) int { return cmp.Compare(a.Min.X, b.Min.X) }

// load makes rects the scanner's operand — canonicalized, empties
// dropped, by (Min.Y, Min.X) — and returns it. A slab list arrives in
// that order and is not sorted again.
func (s *bandScanner) load(rects []geom.Rect) []geom.Rect {
	s.rects = slices.Grow(s.rects[:0], len(rects))
	for _, r := range rects {
		if r = r.Canon(); !r.Empty() {
			s.rects = append(s.rects, r)
		}
	}
	byMinYX := func(a, b geom.Rect) int {
		if a.Min.Y != b.Min.Y {
			return cmp.Compare(a.Min.Y, b.Min.Y)
		}
		return byMinX(a, b)
	}
	if !slices.IsSortedFunc(s.rects, byMinYX) {
		slices.SortFunc(s.rects, byMinYX)
	}
	s.next, s.active = 0, s.active[:0]
	return s.rects
}

// band returns the merged x-spans of the band starting at y0, and the
// band's top: the next y at which an operand rect starts or ends, or
// noBand when none does. The spans are valid until the next call.
func (s *bandScanner) band(y0 int) ([]span, int) {
	// the rects entering here share one Min.Y, and so arrive by Min.X,
	// unless the sweep started above their Min.Y (the first band of a
	// complement's frame, or of a difference's b)
	lo := s.next
	for s.next < len(s.rects) && s.rects[s.next].Min.Y <= y0 {
		s.next++
	}
	enter := s.rects[lo:s.next]
	if !slices.IsSortedFunc(enter, byMinX) {
		slices.SortFunc(enter, byMinX)
	}
	y1 := noBand
	if s.next < len(s.rects) {
		y1 = s.rects[s.next].Min.Y
	}
	// merge the entering rects into the active set by Min.X, dropping
	// the rects the sweep has passed; spans merge on the way
	kept := s.spare[:0]
	s.buf = s.buf[:0]
	for i, j := 0, 0; i < len(s.active) || j < len(enter); {
		var r geom.Rect
		if j == len(enter) || i < len(s.active) && s.active[i].Min.X <= enter[j].Min.X {
			r, i = s.active[i], i+1
		} else {
			r, j = enter[j], j+1
		}
		if r.Max.Y <= y0 {
			continue
		}
		kept = append(kept, r)
		y1 = min(y1, r.Max.Y)
		if n := len(s.buf); n > 0 && r.Min.X <= s.buf[n-1].hi {
			s.buf[n-1].hi = max(s.buf[n-1].hi, r.Max.X)
		} else {
			s.buf = append(s.buf, span{r.Min.X, r.Max.X})
		}
	}
	s.active, s.spare = kept, s.active
	return s.buf, y1
}

// MergeRegion returns the union of rects as disjoint slabs.
func MergeRegion(rects []geom.Rect) []geom.Rect {
	var sw sweep
	return sw.merge(rects)
}

func (sw *sweep) merge(rects []geom.Rect) []geom.Rect {
	a := sw.a.load(rects)
	if len(a) == 0 {
		return nil
	}
	return sw.bandRegion(make([]geom.Rect, 0, len(a)), a[0].Min.Y, sw.a.band)
}

// complement returns frame minus the union of rects, as disjoint
// slabs. It sweeps the frame's bands alone, so rects reaching beyond
// the frame need no clipping.
func (sw *sweep) complement(rects []geom.Rect, frame geom.Rect) []geom.Rect {
	a := sw.a.load(rects)
	whole := []span{{frame.Min.X, frame.Max.X}}
	return sw.bandRegion(make([]geom.Rect, 0, len(a)+1), frame.Min.Y, func(y0 int) ([]span, int) {
		if y0 >= frame.Max.Y {
			return nil, noBand
		}
		sp, y1 := sw.a.band(y0)
		sw.diff = subtractSpans(sw.diff[:0], whole, sp)
		return sw.diff, min(y1, frame.Max.Y)
	})
}

// SubtractRegion returns the union of a minus the union of b, as
// disjoint slabs.
func SubtractRegion(a, b []geom.Rect) []geom.Rect {
	var sw sweep
	return sw.subtract(a, b)
}

// subtract sweeps from a's lowest rect until a runs out: no band
// outside that range holds any of a.
func (sw *sweep) subtract(a, b []geom.Rect) []geom.Rect {
	ra := sw.a.load(a)
	if len(ra) == 0 {
		return nil
	}
	sw.b.load(b)
	return sw.bandRegion(nil, ra[0].Min.Y, func(y0 int) ([]span, int) {
		sa, ya := sw.a.band(y0)
		if ya == noBand {
			return nil, noBand
		}
		sb, yb := sw.b.band(y0)
		sw.diff = subtractSpans(sw.diff[:0], sa, sb)
		return sw.diff, min(ya, yb)
	})
}

// regionDilate inflates every rect in place by lo on the min sides and
// hi on the max sides (Minkowski sum with the box [-lo, hi] x
// [-lo, hi]), keeping their order. The result may overlap; callers
// normalize through the band sweep.
func regionDilate(rects []geom.Rect, lo, hi int) []geom.Rect {
	for i, r := range rects {
		rects[i] = geom.Rect{
			Min: geom.Pt(r.Min.X-lo, r.Min.Y-lo),
			Max: geom.Pt(r.Max.X+hi, r.Max.Y+hi),
		}
	}
	return rects
}
