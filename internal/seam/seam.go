// Package seam holds the placement-signature and abutment-seam
// primitives of the hierarchical verifiers. The LVS reference
// derivation (internal/lvs) stitches seams with Reach and Depth and
// hashes signatures with the fnv helpers; the hierarchical
// extraction/DRC certificate engine (internal/hier) reads only Reach,
// which its store fingerprint embeds, so changing Reach re-keys every
// persisted hier certificate. LVS persists nothing.
package seam

import (
	"riot/internal/geom"
	"riot/internal/rules"
)

// Reach is the base distance the abutment contract reaches into a
// cell, in centimicrons: for plainly abutted boxes (touching, not
// overlapping), material within this distance of the cell's bounding
// box participates in seam continuity. Wire end caps and rail halves
// bleed at most half the widest library wire (2 lambda) past the box,
// so 4 lambda covers every sanctioned contact point with margin.
//
// Reach is NOT a cap on seam trust: an ABUT OVERLAP places the boxes
// overlapping, and material as deep as the overlap reaches can
// legitimately touch the neighbor's. Callers retain boundary material
// to the deepest reach any seam actually needs (Depth, computed from
// the overlap of the two placed boxes), so a deep overlap stitches
// exactly like a shallow one.
const Reach = 4 * rules.Lambda

// Depth bounds how deep (in centimicrons, measured inward from bu's
// boundary) sanctioned seam contact against bv can reach into bu: the
// deepest point of the pair's seam window — the box intersection
// inflated by the contract's base reach — measured by inward
// L-infinity distance. Plainly abutted boxes (degenerate intersection)
// yield the base Reach; an ABUT OVERLAP yields overlap depth plus
// margin. The bound errs high (the margin absorbs material bleeding
// past the boxes and exact-boundary contact), never low.
func Depth(bu, bv geom.Rect) int {
	sx0, sy0 := max(bu.Min.X, bv.Min.X), max(bu.Min.Y, bv.Min.Y)
	sx1, sy1 := min(bu.Max.X, bv.Max.X), min(bu.Max.Y, bv.Max.Y)
	if sx0 > sx1 || sy0 > sy1 {
		return 0
	}
	dx := axisDepth(max(sx0-Reach, bu.Min.X), min(sx1+Reach, bu.Max.X), bu.Min.X, bu.Max.X)
	dy := axisDepth(max(sy0-Reach, bu.Min.Y), min(sy1+Reach, bu.Max.Y), bu.Min.Y, bu.Max.Y)
	return min(dx, dy)
}

// axisDepth is the maximum over x in [w0, w1] of min(x-b0, b1-x): the
// deepest one-axis penetration of the window into the box span.
func axisDepth(w0, w1, b0, b1 int) int {
	x := (b0 + b1) / 2
	if x < w0 {
		x = w0
	}
	if x > w1 {
		x = w1
	}
	return min(x-b0, b1-x)
}

// fnv-1a, the hash behind placement signatures and refinement colors.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// FNVInit returns the fnv-1a offset basis.
func FNVInit() uint64 { return fnvOffset }

// FNVMix folds one 64-bit value into an fnv-1a hash, byte by byte.
func FNVMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// Pack32 packs two ints into one hashable word (low 32 bits each).
func Pack32(a, b int) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }
