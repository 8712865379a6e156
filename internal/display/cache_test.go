package display

import (
	"testing"

	"riot/internal/geom"
	"riot/internal/raster"
)

// TestDrawCellCachedReusesCullIndex: two successive DrawCellCached
// calls at the same edit generation must reuse the cull index
// (no re-binning), render identical pixels across a pan, and drop the
// cache when the generation moves.
func TestDrawCellCachedReusesCullIndex(t *testing.T) {
	top := bigArray(t)
	v := FitView(top.BBox(), geom.R(0, 0, 399, 299), true)
	c := NewCache()

	im1 := raster.New(400, 300)
	DrawCellCached(RasterCanvas{Im: im1}, v, top, Options{}, c, 1)
	if c.CullHits != 0 {
		t.Fatalf("first frame reported %d cull hits", c.CullHits)
	}

	im2 := raster.New(400, 300)
	DrawCellCached(RasterCanvas{Im: im2}, v, top, Options{}, c, 1)
	if c.CullHits == 0 {
		t.Fatal("second frame did not reuse the cull index")
	}
	if !samePix(im1.Pix, im2.Pix) {
		t.Fatal("cached redraw rendered different pixels")
	}

	// pan: still the same generation, still a cache hit, and the
	// culled render must match a cache-free draw of the same view
	hits := c.CullHits
	pv := v
	pv.Pan(1, 0, 3)
	im3 := raster.New(400, 300)
	DrawCellCached(RasterCanvas{Im: im3}, pv, top, Options{}, c, 1)
	if c.CullHits <= hits {
		t.Fatal("panned frame did not reuse the cull index")
	}
	plain := raster.New(400, 300)
	DrawCell(RasterCanvas{Im: plain}, pv, top, Options{})
	if !samePix(im3.Pix, plain.Pix) {
		t.Fatal("cached panned render differs from cache-free render")
	}

	// a new generation must rebuild (no hit on the next draw)
	hits = c.CullHits
	im4 := raster.New(400, 300)
	DrawCellCached(RasterCanvas{Im: im4}, v, top, Options{}, c, 2)
	if c.CullHits != 0 {
		t.Fatalf("generation change kept %d stale cull hits", c.CullHits)
	}
}

// samePix compares two frame buffers.
func samePix(a, b []geom.Color) bool {
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
