package display

import (
	"bytes"
	"testing"

	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/raster"
	"riot/internal/sticks"
)

// bigArray builds a composition with one 10x10 array of the test leaf
// cell — enough copies to cull.
func bigArray(t *testing.T) *core.Cell {
	t.Helper()
	cell := testCell(t)
	top := core.NewComposition("TOP")
	top.Instances = append(top.Instances,
		&core.Instance{Name: "a", Cell: cell, Tr: geom.Identity,
			Nx: 10, Ny: 10, Sx: 25 * L, Sy: 15 * L})
	return top
}

// TestCullFullViewUnchanged: a view that shows the whole array must
// render exactly the same pixels whether or not culling runs —
// nothing is outside the window, so nothing may be skipped.
func TestCullFullViewUnchanged(t *testing.T) {
	top := bigArray(t)
	v := FitView(top.BBox(), geom.R(0, 0, 399, 299), true)
	culled := raster.New(400, 300)
	DrawCell(RasterCanvas{Im: culled}, v, top, Options{})
	if culled.CountColor(geom.ColorWhite) == 0 {
		t.Fatal("array invisible")
	}
	// the uncull reference: each instance drawn directly, then the
	// top-cell outline DrawCell adds
	plain := raster.New(400, 300)
	for _, in := range top.Instances {
		DrawInstance(RasterCanvas{Im: plain}, v, in, Options{})
	}
	RasterCanvas{Im: plain}.Rect(v.ToScreenRect(top.BBox()), geom.ColorWhite)
	var want, got bytes.Buffer
	if err := plain.WritePPM(&want); err != nil {
		t.Fatal(err)
	}
	if err := culled.WritePPM(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Error("culled full view differs from the uncull reference render")
	}
}

// TestCullZoomedView: zoomed into one corner cell, the visible copy
// still draws, and the crosses of the ~99 off-window copies are
// skipped (far fewer marks than the full array would paint onto a
// clipping canvas).
func TestCullZoomedView(t *testing.T) {
	top := bigArray(t)
	// window over the bottom-left copy only
	v := View{
		Window: geom.R(0, 0, 25*L, 15*L),
		Screen: geom.R(0, 0, 399, 299),
		FlipY:  true,
	}
	im := raster.New(400, 300)
	DrawCell(RasterCanvas{Im: im}, v, top, Options{})
	if im.CountColor(geom.ColorWhite) == 0 {
		t.Fatal("visible copy culled away")
	}
	if im.CountColor(geom.ColorBlue) == 0 {
		t.Fatal("visible copy's connector crosses culled away")
	}
}

// TestCullOverhangingGeometry: a sticks cell whose wide rail overhangs
// its declared bounding box must not be culled while only the overhang
// is in view. The window sits in the gap between two array rows where
// nothing but overhang renders; the culled draw must match the uncull
// reference exactly.
func TestCullOverhangingGeometry(t *testing.T) {
	sc := &sticks.Cell{
		Name: "WIDE", Box: geom.R(0, 0, 20, 10), HasBox: true,
		Wires: []sticks.Wire{
			// width 20 centered on the bottom edge: overhangs 10 lambda below
			{Layer: geom.NM, Width: 20, Points: []geom.Point{{X: 0, Y: 0}, {X: 20, Y: 0}}},
		},
		Connectors: []sticks.Connector{
			{Name: "IN", At: geom.Pt(0, 0), Layer: geom.NM, Width: 20, Side: geom.SideLeft},
		},
	}
	cell, err := core.NewLeafFromSticks(sc)
	if err != nil {
		t.Fatal(err)
	}
	top := core.NewComposition("TOP")
	top.Instances = append(top.Instances,
		&core.Instance{Name: "a", Cell: cell, Tr: geom.Identity,
			Nx: 6, Ny: 3, Sx: 20 * L, Sy: 40 * L})
	// a thin window strip below row 1's declared boxes (y in 34..38
	// lambda): only row 1's rail overhang (down to 30 lambda... 40-10)
	// is nearby; the declared boxes start at y=40 lambda
	v := View{
		Window: geom.R(0, 32*L, 120*L, 38*L),
		Screen: geom.R(0, 0, 599, 29),
		FlipY:  true,
	}
	culled := raster.New(600, 30)
	DrawCell(RasterCanvas{Im: culled}, v, top, Options{Geometry: true})
	plain := raster.New(600, 30)
	for _, in := range top.Instances {
		DrawInstance(RasterCanvas{Im: plain}, v, in, Options{Geometry: true})
	}
	RasterCanvas{Im: plain}.Rect(v.ToScreenRect(top.BBox()), geom.ColorWhite)
	var want, got bytes.Buffer
	if err := plain.WritePPM(&want); err != nil {
		t.Fatal(err)
	}
	if err := culled.WritePPM(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Error("culled render of overhanging rail differs from uncull reference")
	}
	if culled.CountColor(geom.ColorBlue) == 0 {
		t.Error("overhanging rail not drawn at all (window strip should see it)")
	}
}

// BenchmarkDrawCulledArray measures redrawing a 10x10 array zoomed
// into one copy — the pan/zoom hot path culling accelerates.
func BenchmarkDrawCulledArray(b *testing.B) {
	cell := testCell(b)
	top := core.NewComposition("TOP")
	top.Instances = append(top.Instances,
		&core.Instance{Name: "a", Cell: cell, Tr: geom.Identity,
			Nx: 10, Ny: 10, Sx: 25 * L, Sy: 15 * L})
	v := View{Window: geom.R(0, 0, 25*L, 15*L), Screen: geom.R(0, 0, 399, 299), FlipY: true}
	im := raster.New(400, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DrawCell(RasterCanvas{Im: im}, v, top, Options{})
	}
}

// TestCullDrawInstance: the figure-3 DrawInstance entry point culls
// off-window array copies itself — zoomed into one copy of a 10x10
// array, it paints the same pixels as the uncull per-copy reference
// but far fewer connector crosses than the whole array carries.
func TestCullDrawInstance(t *testing.T) {
	top := bigArray(t)
	in := top.Instances[0]
	v := View{
		Window: geom.R(0, 0, 25*L, 15*L),
		Screen: geom.R(0, 0, 399, 299),
		FlipY:  true,
	}
	culled := raster.New(400, 300)
	DrawInstance(RasterCanvas{Im: culled}, v, in, Options{})
	if culled.CountColor(geom.ColorWhite) == 0 {
		t.Fatal("visible copy culled away")
	}
	if culled.CountColor(geom.ColorBlue) == 0 {
		t.Fatal("visible copy's connector crosses culled away")
	}
	// uncull reference: every copy drawn directly
	plain := raster.New(400, 300)
	sb := NewCache()
	for i := 0; i < in.Nx; i++ {
		for j := 0; j < in.Ny; j++ {
			drawInstanceCopy(RasterCanvas{Im: plain}, v, in, i, j, geom.Identity, Options{}, sb)
		}
	}
	var want, got bytes.Buffer
	if err := plain.WritePPM(&want); err != nil {
		t.Fatal(err)
	}
	if err := culled.WritePPM(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Error("culled DrawInstance differs from the uncull reference render")
	}
}
