package flatten

import "riot/internal/core"
import "riot/internal/geom"

// Window flattens only the part of a cell hierarchy whose leaf
// occurrences can place material within pad centimicrons of the clip
// rectangle (touching counts — abutment happens at shared edges).
// Culling works on placed bounding boxes: a leaf occurrence whose
// inflated box touches the clip is emitted whole, so the Result's
// occurrence structure (SrcBoxes/SrcCells, contiguous per-occurrence
// shapes and devices) matches what a full flatten would produce for
// those occurrences — only the occurrence ids are renumbered densely
// in walk order over the survivors.
//
// Replicated arrays are culled without visiting every copy: the copy
// lattice moves the placed box along the two axes independently (riot
// transforms are orthogonal), so the surviving copy ranges are solved
// per axis in O(1) and only copies inside the window are walked. A
// window over a seam of a 256x256 array therefore flattens a handful
// of copies, not 65k.
//
// Window results carry no labels: the callers (seam-window re-checks
// in the hierarchical verifier) care about material, devices and
// joins, and a culled label list would be misleading.
func Window(c *core.Cell, clip geom.Rect, pad int) (*Result, error) {
	clip = clip.Canon()
	b := &builder{}
	w := &windowWalker{b: b, clip: clip.Inset(-pad)}
	if err := w.cell(c, geom.Identity); err != nil {
		return nil, err
	}
	return b.result(), nil
}

type windowWalker struct {
	b *builder
	// clip is the window already inflated by the caller's pad: a leaf
	// survives when its placed box touches it.
	clip geom.Rect
}

func (w *windowWalker) cell(c *core.Cell, tr geom.Transform) error {
	if !tr.ApplyRect(c.BBox()).Touches(w.clip) {
		return nil
	}
	if c.Kind != core.Composition {
		return w.b.cell(c, tr)
	}
	for _, in := range c.Instances {
		if err := w.instance(in, tr); err != nil {
			return err
		}
	}
	return nil
}

func (w *windowWalker) instance(in *core.Instance, tr geom.Transform) error {
	if in.Nx == 1 && in.Ny == 1 {
		return w.cell(in.Cell, in.CopyTransform(0, 0).Then(tr))
	}
	// The combined placement is orthogonal, so copy (i, j)'s box is
	// box(0,0) displaced by i*Sx along one axis and j*Sy along the
	// other: solve the surviving index range per axis.
	tc := in.Tr.Then(tr)
	o := tc.Apply(geom.Pt(0, 0))
	ex := tc.Apply(geom.Pt(1, 0)).Sub(o)
	ey := tc.Apply(geom.Pt(0, 1)).Sub(o)
	b0 := in.CopyTransform(0, 0).Then(tr).ApplyRect(in.Cell.BBox())
	vx := geom.Pt(ex.X*in.Sx, ex.Y*in.Sx)
	vy := geom.Pt(ey.X*in.Sy, ey.Y*in.Sy)
	if (vx.X != 0 && vx.Y != 0) || (vy.X != 0 && vy.Y != 0) {
		// not axis-aligned (cannot happen with riot's orthogonal
		// transforms) — visit every copy rather than mis-cull
		for i := 0; i < in.Nx; i++ {
			for j := 0; j < in.Ny; j++ {
				if err := w.cell(in.Cell, in.CopyTransform(i, j).Then(tr)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	var ilo, ihi, jlo, jhi int
	if vx.X != 0 || vx.Y == 0 {
		// i moves the box along X (or not at all), j along Y
		ilo, ihi = axisRange(b0.Min.X, b0.Max.X, vx.X, w.clip.Min.X, w.clip.Max.X, in.Nx)
		jlo, jhi = axisRange(b0.Min.Y, b0.Max.Y, vy.Y, w.clip.Min.Y, w.clip.Max.Y, in.Ny)
	} else {
		ilo, ihi = axisRange(b0.Min.Y, b0.Max.Y, vx.Y, w.clip.Min.Y, w.clip.Max.Y, in.Nx)
		jlo, jhi = axisRange(b0.Min.X, b0.Max.X, vy.X, w.clip.Min.X, w.clip.Max.X, in.Ny)
	}
	for i := ilo; i <= ihi; i++ {
		for j := jlo; j <= jhi; j++ {
			if err := w.cell(in.Cell, in.CopyTransform(i, j).Then(tr)); err != nil {
				return err
			}
		}
	}
	return nil
}

// axisRange solves for the copy indices k in [0, n) whose interval
// [lo+k*v, hi+k*v] touches [clo, chi]. Returns an inclusive range;
// empty ranges come back as (0, -1).
func axisRange(lo, hi, v, clo, chi int, n int) (int, int) {
	if v == 0 {
		if hi >= clo && lo <= chi {
			return 0, n - 1
		}
		return 0, -1
	}
	// touch condition: lo + k*v <= chi  AND  hi + k*v >= clo
	var kmin, kmax int
	if v > 0 {
		kmin, kmax = ceilDiv(clo-hi, v), floorDiv(chi-lo, v)
	} else {
		kmin, kmax = ceilDiv(chi-lo, v), floorDiv(clo-hi, v)
	}
	if kmin < 0 {
		kmin = 0
	}
	if kmax > n-1 {
		kmax = n - 1
	}
	if kmin > kmax {
		return 0, -1
	}
	return kmin, kmax
}

func floorDiv(a, b int) int {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func ceilDiv(a, b int) int { return -floorDiv(-a, b) }
