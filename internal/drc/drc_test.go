package drc

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"riot/internal/core"
	"riot/internal/filter"
	"riot/internal/flatten"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/rules"
	"riot/internal/sticks"
)

const L = rules.Lambda

// lamRule is a 2-wide / 3-apart rule used by the synthetic layer
// tests.
var lamRule = rules.Rule{MinWidth: 2, MinSpacing: 3}

func rectsOnly(vs []Violation, rule Rule) []Violation {
	var out []Violation
	for _, v := range vs {
		if v.Rule == rule {
			out = append(out, v)
		}
	}
	return out
}

func TestWidthExactMinimumPasses(t *testing.T) {
	// a wire at exactly minimum width, horizontal and vertical, plus a
	// fat pad: all legal
	rects := []geom.Rect{
		geom.R(0, 0, 2*L, 20*L),     // vertical min-width wire
		geom.R(0, 0, 20*L, 2*L),     // horizontal min-width wire
		geom.R(30*L, 0, 40*L, 10*L), // fat pad
		geom.R(30*L, 0, 32*L, 30*L), // wire leaving the pad
	}
	if vs := rectsOnly(CheckLayer(geom.NM, rects, lamRule), RuleWidth); len(vs) != 0 {
		t.Errorf("exact-minimum geometry flagged: %v", vs)
	}
}

func TestWidthSliverFlagged(t *testing.T) {
	// one centimicron under the rule fails, however long the wire
	rects := []geom.Rect{geom.R(0, 0, 2*L-1, 20*L)}
	vs := rectsOnly(CheckLayer(geom.NM, rects, lamRule), RuleWidth)
	if len(vs) != 1 {
		t.Fatalf("sliver violations = %v", vs)
	}
	if vs[0].Got != 2*L-1 || vs[0].Want != 2*L {
		t.Errorf("got/want = %d/%d", vs[0].Got, vs[0].Want)
	}
	if vs[0].Layer != geom.NM {
		t.Errorf("layer = %v", vs[0].Layer)
	}
}

func TestWidthNotchNeck(t *testing.T) {
	// two wide pads joined by a neck: the merged region pinches below
	// minimum width at the neck even though every input rect is wide
	pads := []geom.Rect{
		geom.R(0, 0, 10*L, 10*L),
		geom.R(14*L, 0, 24*L, 10*L),
	}
	neck := geom.R(10*L, 4*L, 14*L, 4*L+L) // 1 lambda tall bridge
	vs := rectsOnly(CheckLayer(geom.NM, append(pads, neck), lamRule), RuleWidth)
	if len(vs) != 1 {
		t.Fatalf("neck violations = %v", vs)
	}
	if !vs[0].Rect.Overlaps(neck) {
		t.Errorf("violation %v does not cover the neck %v", vs[0].Rect, neck)
	}
	// widen the neck to the rule: legal
	wide := geom.R(10*L, 4*L, 14*L, 6*L)
	if vs := rectsOnly(CheckLayer(geom.NM, append(pads, wide), lamRule), RuleWidth); len(vs) != 0 {
		t.Errorf("legal neck flagged: %v", vs)
	}
}

func TestWidthCornerShapesPass(t *testing.T) {
	// L, T and cross junctions of minimum-width wires are legal: the
	// opening square fits in every arm
	arms := []geom.Rect{
		geom.R(10*L, 0, 12*L, 30*L), // vertical
		geom.R(0, 14*L, 30*L, 16*L), // horizontal through it
		geom.R(0, 28*L, 12*L, 30*L), // L corner at the top
	}
	if vs := rectsOnly(CheckLayer(geom.NP, arms, rules.Rule{MinWidth: 2, MinSpacing: 2}), RuleWidth); len(vs) != 0 {
		t.Errorf("junctions flagged: %v", vs)
	}
}

func TestSpacingEdgeAndCorner(t *testing.T) {
	a := geom.R(0, 0, 4*L, 4*L)
	cases := []struct {
		name string
		b    geom.Rect
		want int // violations
		got  int // reported separation, when violating
	}{
		{"at rule", geom.R(4*L+3*L, 0, 11*L, 4*L), 0, 0},
		{"one under", geom.R(4*L+3*L-1, 0, 11*L, 4*L), 1, 3*L - 1},
		{"far", geom.R(20*L, 0, 24*L, 4*L), 0, 0},
		// diagonal: dx=dy=2.2 lambda; Euclidean 3.11 lambda >= 3: legal
		// even though each axis gap alone is under the rule
		{"diagonal legal", geom.R(4*L+550, 4*L+550, 11*L, 11*L), 0, 0},
		// diagonal: dx=dy=2 lambda; Euclidean 2.83 lambda < 3: violation
		{"diagonal violating", geom.R(4*L+2*L, 4*L+2*L, 11*L, 11*L), 1, isqrt(8 * L * L)},
	}
	for _, c := range cases {
		vs := rectsOnly(CheckLayer(geom.ND, []geom.Rect{a, c.b}, lamRule), RuleSpacing)
		if len(vs) != c.want {
			t.Errorf("%s: violations = %v", c.name, vs)
			continue
		}
		if c.want == 1 && vs[0].Got != c.got {
			t.Errorf("%s: got = %d, want %d", c.name, vs[0].Got, c.got)
		}
	}
}

func TestSpacingConnectedMaterialExempt(t *testing.T) {
	// a U of touching rects: the arms are 1 lambda apart but connected
	// through the base — one component, no spacing violation
	u := []geom.Rect{
		geom.R(0, 0, 2*L, 10*L),
		geom.R(2*L, 0, 3*L+2*L, 2*L), // base touches both arms
		geom.R(3*L, 2*L, 3*L+2*L, 10*L),
	}
	if vs := rectsOnly(CheckLayer(geom.NM, u, lamRule), RuleSpacing); len(vs) != 0 {
		t.Errorf("connected U flagged: %v", vs)
	}
}

func libDesign(t testing.TB) *core.Design {
	t.Helper()
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSeededPlacementViolation: the checker's reason to exist — two
// library cells placed a hair apart without abutting. The gap between
// their poly combs is under the rule and must be flagged; the same
// pair properly abutted (boxes touching) is the paper's connection
// primitive and must not be.
func TestSeededPlacementViolation(t *testing.T) {
	d := libDesign(t)
	top := core.NewComposition("TOP")
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	e, _ := core.NewEditor(d, top)
	if _, err := e.CreateInstance("SRCELL", "a", geom.Identity, 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	// SRCELL is 20 lambda wide and its wires overhang the box by half
	// a width. At a 23-lambda offset the boxes are 3 lambda apart (no
	// abutment), the overhanging metal rails just touch (connected, so
	// exempt) and the facing poly data wires end up 1 lambda apart —
	// under the 2-lambda poly rule
	if _, err := e.CreateInstance("SRCELL", "b", geom.MakeTransform(geom.R0, geom.Pt(23*L, 0)), 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	vs, err := CheckCell(top)
	if err != nil {
		t.Fatal(err)
	}
	sp := rectsOnly(vs, RuleSpacing)
	if len(sp) == 0 {
		t.Fatal("1-lambda placement gap not flagged")
	}
	for _, v := range sp {
		if v.Got >= v.Want {
			t.Errorf("reported separation %d not under rule %d", v.Got, v.Want)
		}
	}

	// abut them instead: boxes touch, the seam is trusted
	abutted := core.NewComposition("ABUT")
	if err := d.AddCell(abutted); err != nil {
		t.Fatal(err)
	}
	e2, _ := core.NewEditor(d, abutted)
	e2.CreateInstance("SRCELL", "a", geom.Identity, 1, 1, 0, 0)
	e2.CreateInstance("SRCELL", "b", geom.MakeTransform(geom.R0, geom.Pt(20*L, 0)), 1, 1, 0, 0)
	vs, err = CheckCell(abutted)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Errorf("abutted pair flagged: %v", vs)
	}
}

// TestSeededWidthViolation: a cell carrying a sliver — width
// violations are reported regardless of occurrence trust.
func TestSeededWidthViolation(t *testing.T) {
	d := libDesign(t)
	sliver, err := core.NewLeafFromSticks(&sticks.Cell{
		Name:   "BADCELL",
		Box:    geom.R(0, 0, 10, 10),
		HasBox: true,
		Wires: []sticks.Wire{
			// 2-lambda metal: one under the 3-lambda rule
			{Layer: geom.NM, Width: 2, Points: []geom.Point{{X: 0, Y: 5}, {X: 10, Y: 5}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddCell(sliver); err != nil {
		t.Fatal(err)
	}
	vs, err := CheckCell(sliver)
	if err != nil {
		t.Fatal(err)
	}
	w := rectsOnly(vs, RuleWidth)
	if len(w) == 0 {
		t.Fatal("seeded width violation not found")
	}
	if w[0].Layer != geom.NM || w[0].Want != 3*L {
		t.Errorf("violation = %+v", w[0])
	}
}

// TestLibraryAndExamplesClean: the shipped cell library, replicated
// arrays of it, and both figure-9 filter variants check clean — the
// acceptance bar for the checker's default rule set.
func TestLibraryAndExamplesClean(t *testing.T) {
	d := libDesign(t)
	for _, name := range d.CellNames() {
		c, _ := d.Cell(name)
		vs, err := CheckCell(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(vs) != 0 {
			t.Errorf("%s: %v", name, vs)
		}
	}
	// an abutting SRCELL array: seams between copies are trusted
	// abutment, rails merge across rows
	top := core.NewComposition("ARR")
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	sr, _ := d.Cell("SRCELL")
	in := core.NewInstance("a", sr, geom.Identity)
	in.Nx, in.Ny = 4, 3
	in.Sx, in.Sy = 20*L, 24*L
	top.Instances = append(top.Instances, in)
	if vs, err := CheckCell(top); err != nil || len(vs) != 0 {
		t.Errorf("array: err=%v violations=%v", err, vs)
	}
	for _, variant := range []filter.Variant{filter.Routed, filter.Stretched} {
		_, logic, _, err := filter.BuildLogic(variant)
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		vs, err := CheckCell(logic)
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		if len(vs) != 0 {
			t.Errorf("%v: %v", variant, vs)
		}
	}
}

// TestDeterministicOrder: identical designs produce identical
// violation slices, and shuffling the rectangle order of a layer does
// not change the (sorted) report.
func TestDeterministicOrder(t *testing.T) {
	d := libDesign(t)
	top := core.NewComposition("TOP")
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	e, _ := core.NewEditor(d, top)
	e.CreateInstance("SRCELL", "a", geom.Identity, 1, 1, 0, 0)
	e.CreateInstance("SRCELL", "b", geom.MakeTransform(geom.R0, geom.Pt(21*L, 0)), 1, 1, 0, 0)
	e.CreateInstance("NAND", "c", geom.MakeTransform(geom.R0, geom.Pt(0, 26*L)), 1, 1, 0, 0)
	first, err := CheckCell(top)
	if err != nil {
		t.Fatal(err)
	}
	second, err := CheckCell(top)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("reports differ:\n%v\n%v", first, second)
	}

	rects := []geom.Rect{
		geom.R(0, 0, 2*L, 10*L),
		geom.R(2*L+2*L, 0, 7*L, 10*L), // 2 lambda gap: violation
		geom.R(0, 12*L, 10*L, 12*L+L), // sliver
		geom.R(20*L, 0, 24*L, 4*L),
	}
	want := CheckLayer(geom.NM, rects, lamRule)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]geom.Rect(nil), rects...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := CheckLayer(geom.NM, shuffled, lamRule); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: shuffled report differs:\n%v\n%v", trial, got, want)
		}
	}
}

// TestWidthFuzzAgainstRaster cross-checks the morphological width
// checker against the definition: a point of the region violates
// minimum width exactly when no minW x minW square containing it fits
// inside the region. The reference rasterizes the region in doubled
// coordinates and slides every square position with prefix sums. The
// last four trials hold 40 rectangles each.
func TestWidthFuzzAgainstRaster(t *testing.T) {
	rng := rand.New(rand.NewSource(1982))
	for trial := 0; trial < 64; trial++ {
		span := 12 + rng.Intn(18)
		minW := 2 + rng.Intn(4)
		n := 1 + rng.Intn(8)
		if trial >= 60 {
			n = 40
		}
		rects := make([]geom.Rect, n)
		for i := range rects {
			x, y := rng.Intn(span), rng.Intn(span)
			w, h := 1+rng.Intn(span/2), 1+rng.Intn(span/2)
			rects[i] = geom.R(x, y, x+w, y+h)
		}
		// run the production pipeline at rule granularity 1 (the rects
		// here are already in "centimicrons")
		vs := widthViolations(geom.NM, rects, minW)
		var resid []geom.Rect
		for _, v := range vs {
			resid = append(resid, v.Rect)
		}
		checkWidthAgainstRaster(t, trial, rects, minW, resid)
	}
}

// checkWidthAgainstRaster compares residual rects with the brute
// square-fitting definition on the doubled integer grid. Closed-set
// boundaries make exact point membership ambiguous on residual edges,
// so the comparison allows boundary slop: brute violations must lie in
// some (closed) residual rect, and residual-interior points must be
// brute violations.
func checkWidthAgainstRaster(t *testing.T, trial int, rects []geom.Rect, minW int, resid []geom.Rect) {
	t.Helper()
	// doubled grid bounds
	b := rects[0]
	for _, r := range rects[1:] {
		b = b.Union(r)
	}
	x0, y0 := 2*b.Min.X, 2*b.Min.Y
	w, h := 2*b.W()+1, 2*b.H()+1
	occ := make([][]bool, h)
	for y := range occ {
		occ[y] = make([]bool, w)
	}
	for _, r := range rects {
		for y := 2*r.Min.Y - y0; y <= 2*r.Max.Y-y0; y++ {
			for x := 2*r.Min.X - x0; x <= 2*r.Max.X-x0; x++ {
				occ[y][x] = true
			}
		}
	}
	// prefix sums over occupancy
	pre := make([][]int, h+1)
	pre[0] = make([]int, w+1)
	for y := 0; y < h; y++ {
		pre[y+1] = make([]int, w+1)
		for x := 0; x < w; x++ {
			v := 0
			if occ[y][x] {
				v = 1
			}
			pre[y+1][x+1] = pre[y+1][x] + pre[y][x+1] - pre[y][x] + v
		}
	}
	full := func(x, y, side int) bool { // all points of [x,x+side] x [y,y+side] covered
		if x < 0 || y < 0 || x+side >= w || y+side >= h {
			return false
		}
		n := side + 1
		return pre[y+n][x+n]-pre[y+n][x]-pre[y][x+n]+pre[y][x] == n*n
	}
	side := 2*minW - 1
	ok := make([][]bool, h)
	for y := range ok {
		ok[y] = make([]bool, w)
	}
	for y := 0; y+side < h; y++ {
		for x := 0; x+side < w; x++ {
			if full(x, y, side) {
				for yy := y; yy <= y+side; yy++ {
					for xx := x; xx <= x+side; xx++ {
						ok[yy][xx] = true
					}
				}
			}
		}
	}
	inResid := func(px, py int, strict bool) bool { // doubled coords
		for _, r := range resid {
			rx0, ry0, rx1, ry1 := 2*r.Min.X, 2*r.Min.Y, 2*r.Max.X, 2*r.Max.Y
			if strict {
				if px > rx0 && px < rx1 && py > ry0 && py < ry1 {
					return true
				}
			} else if px >= rx0 && px <= rx1 && py >= ry0 && py <= ry1 {
				return true
			}
		}
		return false
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			px, py := x+x0, y+y0
			if occ[y][x] && !ok[y][x] && !inResid(px, py, false) {
				t.Fatalf("trial %d (minW=%d): brute violation at doubled (%d,%d) missing from residual %v",
					trial, minW, px, py, resid)
			}
			if inResid(px, py, true) && !(occ[y][x] && !ok[y][x]) {
				t.Fatalf("trial %d (minW=%d): residual interior point doubled (%d,%d) is not a brute violation (resid %v)",
					trial, minW, px, py, resid)
			}
		}
	}
}

// synthResult builds a flatten.Result over bare shapes for inter-layer
// rule tests (no provenance: Src 0 with one dummy occurrence box).
func synthResult(shapes ...geom.Rect) func(layers ...geom.Layer) *flatten.Result {
	return func(layers ...geom.Layer) *flatten.Result {
		fr := &flatten.Result{SrcBoxes: []geom.Rect{geom.R(-1000*L, -1000*L, 1000*L, 1000*L)}}
		for i, r := range shapes {
			fr.Shapes = append(fr.Shapes, flatten.Shape{Layer: layers[i], R: r, Src: 0})
		}
		return fr
	}
}

func TestContactSurroundExactPasses(t *testing.T) {
	// the library contact structure: 2x2 cut centered in a 4x4 metal
	// plate — exactly ContactSurround lambda on every side
	fr := synthResult(
		geom.R(0, 0, 4*L, 4*L),     // NM plate
		geom.R(1*L, 1*L, 3*L, 3*L), // NC cut
	)(geom.NM, geom.NC)
	if vs := rectsOnly(Check(fr), RuleContactSurround); len(vs) != 0 {
		t.Errorf("exact-surround contact flagged: %v", vs)
	}
}

func TestContactSurroundSplitMetalPasses(t *testing.T) {
	// surround assembled from two abutting metal rectangles still covers
	fr := synthResult(
		geom.R(0, 0, 2*L, 4*L),
		geom.R(2*L, 0, 4*L, 4*L),
		geom.R(1*L, 1*L, 3*L, 3*L),
	)(geom.NM, geom.NM, geom.NC)
	if vs := rectsOnly(Check(fr), RuleContactSurround); len(vs) != 0 {
		t.Errorf("split-metal surround flagged: %v", vs)
	}
}

func TestContactSurroundFlushMetalFlagged(t *testing.T) {
	// metal flush with the cut: zero surround
	fr := synthResult(
		geom.R(1*L, 1*L, 3*L, 3*L), // NM exactly the cut
		geom.R(1*L, 1*L, 3*L, 3*L), // NC cut
	)(geom.NM, geom.NC)
	vs := rectsOnly(Check(fr), RuleContactSurround)
	if len(vs) == 0 {
		t.Fatal("flush metal not flagged")
	}
	if vs[0].Want != ContactSurround*L || vs[0].Got != 0 {
		t.Errorf("got/want = %d/%d", vs[0].Got, vs[0].Want)
	}
	if s := vs[0].String(); !strings.Contains(s, "0 < 1 lambda") {
		t.Errorf("violation renders as %q, want lambda distances", s)
	}
}

func TestContactSurroundOneSideShortFlagged(t *testing.T) {
	// plate shifted one lambda: full surround on the left, none on the
	// right
	fr := synthResult(
		geom.R(-1*L, 0, 3*L, 4*L),
		geom.R(1*L, 1*L, 3*L, 3*L),
	)(geom.NM, geom.NC)
	vs := rectsOnly(Check(fr), RuleContactSurround)
	if len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	want := geom.R(3*L, 0, 4*L, 4*L) // the uncovered right strip of the frame
	if vs[0].Rect != want {
		t.Errorf("residue = %v, want %v", vs[0].Rect, want)
	}
}

func TestContactSurroundUncutLayersIgnored(t *testing.T) {
	// no NC present: the pass is a no-op even with metal everywhere
	fr := synthResult(geom.R(0, 0, 40*L, 40*L))(geom.NM)
	if vs := rectsOnly(Check(fr), RuleContactSurround); len(vs) != 0 {
		t.Errorf("cutless design flagged: %v", vs)
	}
}

func TestContactSurroundLibraryPadsClean(t *testing.T) {
	// the shipped CIF pads carry their cuts in 4x4 metal plates
	cells, err := lib.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		vs, err := CheckCell(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if sur := rectsOnly(vs, RuleContactSurround); len(sur) != 0 {
			t.Errorf("%s: contact-surround violations: %v", c.Name, sur)
		}
	}
}
