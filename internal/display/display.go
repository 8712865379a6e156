// Package display is the device-independent half of Riot's graphics
// package: viewport mathematics (zoom and pan over the design plane)
// and cell rendering onto an abstract canvas. Two canvases exist: the
// raster frame buffer of the simulated color terminal, and the HP-GL
// pen plotter for hardcopy.
//
// Riot draws an instance as "the bounding box and connectors of the
// defining cell positioned, oriented, and replicated by the instance
// information. The size and color of the connector crosses indicates
// width and layer of the wire making the connection inside the cell.
// Optionally, instances can be displayed with their cell names and
// connector names to facilitate identification." DrawCell implements
// exactly that view, plus a full-geometry mode for finished-chip plots.
package display

import (
	"fmt"

	"riot/internal/cif"
	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/rules"
)

// Canvas is the drawing surface abstraction shared by the frame buffer
// and the pen plotter. Coordinates are device coordinates.
type Canvas interface {
	Line(a, b geom.Point, c geom.Color)
	Rect(r geom.Rect, c geom.Color)
	FillRect(r geom.Rect, c geom.Color)
	Cross(at geom.Point, size int, c geom.Color)
	Text(at geom.Point, s string, c geom.Color)
}

// View maps a window in the design plane onto a device rectangle.
type View struct {
	Window geom.Rect // visible design-plane region (centimicrons)
	Screen geom.Rect // device region
	FlipY  bool      // raster devices grow y downward
}

// FitView builds a view showing all of window inside screen, preserving
// aspect ratio and adding a small margin.
func FitView(window, screen geom.Rect, flipY bool) View {
	if window.Empty() {
		window = geom.R(window.Min.X, window.Min.Y, window.Min.X+1, window.Min.Y+1)
	}
	// 5% margin
	mx, my := window.W()/20+1, window.H()/20+1
	window = geom.R(window.Min.X-mx, window.Min.Y-my, window.Max.X+mx, window.Max.Y+my)
	// expand the window to the screen's aspect ratio so nothing
	// distorts
	sw, sh := screen.W(), screen.H()
	if sw < 1 {
		sw = 1
	}
	if sh < 1 {
		sh = 1
	}
	if window.W()*sh < window.H()*sw { // window too narrow
		want := window.H() * sw / sh
		grow := (want - window.W()) / 2
		window = geom.R(window.Min.X-grow, window.Min.Y, window.Min.X-grow+want, window.Max.Y)
	} else {
		want := window.W() * sh / sw
		grow := (want - window.H()) / 2
		window = geom.R(window.Min.X, window.Min.Y-grow, window.Max.X, window.Min.Y-grow+want)
	}
	return View{Window: window, Screen: screen, FlipY: flipY}
}

// ToScreen maps a design point to device coordinates.
func (v View) ToScreen(p geom.Point) geom.Point {
	x := v.Screen.Min.X + int(int64(p.X-v.Window.Min.X)*int64(v.Screen.W())/int64(max(1, v.Window.W())))
	var y int
	if v.FlipY {
		y = v.Screen.Max.Y - int(int64(p.Y-v.Window.Min.Y)*int64(v.Screen.H())/int64(max(1, v.Window.H())))
	} else {
		y = v.Screen.Min.Y + int(int64(p.Y-v.Window.Min.Y)*int64(v.Screen.H())/int64(max(1, v.Window.H())))
	}
	return geom.Pt(x, y)
}

// ToDesign maps a device point back into the design plane (the inverse
// of ToScreen up to rounding) — used for pointing.
func (v View) ToDesign(p geom.Point) geom.Point {
	x := v.Window.Min.X + int(int64(p.X-v.Screen.Min.X)*int64(max(1, v.Window.W()))/int64(max(1, v.Screen.W())))
	var y int
	if v.FlipY {
		y = v.Window.Min.Y + int(int64(v.Screen.Max.Y-p.Y)*int64(max(1, v.Window.H()))/int64(max(1, v.Screen.H())))
	} else {
		y = v.Window.Min.Y + int(int64(p.Y-v.Screen.Min.Y)*int64(max(1, v.Window.H()))/int64(max(1, v.Screen.H())))
	}
	return geom.Pt(x, y)
}

// ToScreenRect maps a design rectangle to a normalized device
// rectangle.
func (v View) ToScreenRect(r geom.Rect) geom.Rect {
	return geom.RectFromPoints(v.ToScreen(r.Min), v.ToScreen(r.Max))
}

// Zoom scales the window about its center: num/den > 1 zooms out,
// < 1 zooms in.
func (v *View) Zoom(num, den int) {
	c := v.Window.Center()
	w := v.Window.W() * num / den
	h := v.Window.H() * num / den
	if w < 4 {
		w = 4
	}
	if h < 4 {
		h = 4
	}
	v.Window = geom.R(c.X-w/2, c.Y-h/2, c.X-w/2+w, c.Y-h/2+h)
}

// Pan shifts the window by a fraction (num/den) of its extent in each
// axis.
func (v *View) Pan(dxNum, dyNum, den int) {
	v.Window = v.Window.Translate(geom.Pt(v.Window.W()*dxNum/den, v.Window.H()*dyNum/den))
}

// Options selects what DrawCell renders.
type Options struct {
	// ShowNames labels instances with cell names and connectors with
	// connector names.
	ShowNames bool
	// Geometry recurses all the way down and draws leaf mask geometry
	// (for finished-chip plots) instead of stopping at instance
	// bounding boxes.
	Geometry bool
}

// DrawCell renders a cell onto the canvas through the view with a
// transient cache (derived geometry is recomputed next call).
func DrawCell(cv Canvas, v View, cell *core.Cell, opt Options) {
	drawCell(cv, v, cell, geom.Identity, opt, true, NewCache())
}

// DrawCellCached renders like DrawCell but keeps derived geometry —
// most importantly the per-composition instance cull indexes — in a
// cache the caller holds across frames, keyed on the editor's edit
// generation. Pan and zoom only change the viewport query, so
// redrawing a static design never re-bins a composition; any editing
// operation bumps the generation and drops the cache.
func DrawCellCached(cv Canvas, v View, cell *core.Cell, opt Options, c *Cache, gen uint64) {
	c.ensure(gen)
	drawCell(cv, v, cell, geom.Identity, opt, true, c)
}

// DrawInstance renders one instance (the figure-3 view).
func DrawInstance(cv Canvas, v View, in *core.Instance, opt Options) {
	drawInstance(cv, v, in, geom.Identity, opt, NewCache())
}

// Cache memoizes derived drawing geometry: called CIF symbols'
// bounding boxes (keyed per file, since symbol ids are only unique
// within a file), cells' worst-case mask overhang, and the viewport
// cull indexes over a composition's instance bounding boxes (array
// copies cull by arithmetic and need none). The symbol and overhang
// entries are transform-independent, so one computation serves every
// instance copy in a frame; the cull indexes live in design space, so
// across frames they are valid until the design changes — holders pass
// the edit generation to DrawCellCached and the cache clears itself
// when it moves.
type Cache struct {
	symBox   map[symKey]geom.Rect
	overhang map[*core.Cell]int
	compCull map[compCullKey]*geom.Index

	gen   uint64
	keyed bool

	// CullHits counts cull-index reuses across draws (observability
	// and tests).
	CullHits int
}

type symKey struct {
	f  *cif.File
	id int
}

// compCullKey identifies a composition's instance-cull index.
type compCullKey struct {
	cell *core.Cell
	tr   geom.Transform
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{
		symBox:   map[symKey]geom.Rect{},
		overhang: map[*core.Cell]int{},
		compCull: map[compCullKey]*geom.Index{},
	}
}

// ensure keys the cache to an edit generation, dropping every entry
// (and the hit counter) when the generation moved.
func (sb *Cache) ensure(gen uint64) {
	if sb.keyed && sb.gen == gen {
		return
	}
	sb.CullHits = 0
	sb.symBox = map[symKey]geom.Rect{}
	sb.overhang = map[*core.Cell]int{}
	sb.compCull = map[compCullKey]*geom.Index{}
	sb.gen, sb.keyed = gen, true
}

func drawCell(cv Canvas, v View, cell *core.Cell, tr geom.Transform, opt Options, top bool, sb *Cache) {
	switch cell.Kind {
	case core.Composition:
		drawComposition(cv, v, cell, tr, opt, sb)
		if top {
			// outline the cell under edit
			cv.Rect(v.ToScreenRect(tr.ApplyRect(cell.BBox())), geom.ColorWhite)
		}
	default:
		if opt.Geometry {
			drawLeafGeometry(cv, v, cell, tr, sb)
		} else {
			drawBoxAndConnectors(cv, v, cell, tr, opt)
		}
	}
}

// cullMinCopies is the replication count below which an instance (or
// a composition's instances) draws without culling; tiny arrays are
// cheaper to draw outright.
const cullMinCopies = 16

// cullMargin returns the design-space slop added around the window when
// deciding visibility: marks that render a few device pixels past a
// copy's bounding box (connector crosses, cell overhangs) must not be
// culled while their overhang is on screen.
func cullMargin(v View) int {
	dpp := v.Window.W() / max(1, v.Screen.W()) // design units per device pixel
	return 16*dpp + 4*rules.Lambda
}

// drawComposition renders a composition's instances in declaration
// order. Culling happens at two levels: compositions with many
// instances cull whole instances against the viewport through a
// geom.Index over their bounding boxes (so a padframe of dozens of
// one-copy cells skips the off-window ones), and drawInstance culls
// the array copies inside each instance that survives. Name labels can
// extend arbitrarily far past a box, so ShowNames (box view) disables
// culling.
func drawComposition(cv Canvas, v View, cell *core.Cell, tr geom.Transform, opt Options, sb *Cache) {
	total := 0
	for _, in := range cell.Instances {
		total += in.Nx * in.Ny
	}
	if (opt.ShowNames && !opt.Geometry) || total < cullMinCopies {
		for _, in := range cell.Instances {
			drawInstance(cv, v, in, tr, opt, sb)
		}
		return
	}
	key := compCullKey{cell, tr}
	ix, ok := sb.compCull[key]
	if ok && ix.Len() == len(cell.Instances) {
		sb.CullHits++
	} else {
		ix = geom.NewIndex()
		for _, in := range cell.Instances {
			box := tr.ApplyRect(in.BBox()).Inset(-sb.cellOverhang(in.Cell))
			ix.Insert(box)
		}
		ix.Build()
		sb.compCull[key] = ix
	}
	visible := make([]bool, ix.Len())
	ix.QueryRect(v.Window.Inset(-cullMargin(v)), func(id int) bool {
		visible[id] = true
		return true
	})
	for k, in := range cell.Instances {
		if visible[k] {
			drawInstance(cv, v, in, tr, opt, sb)
		}
	}
}

// cellOverhang memoizes geomOverhang per draw: shared sub-composition
// DAGs would otherwise be re-walked once per instance entry per frame.
func (sb *Cache) cellOverhang(c *core.Cell) int {
	if o, ok := sb.overhang[c]; ok {
		return o
	}
	o := sb.geomOverhang(c)
	sb.overhang[c] = o
	return o
}

// geomOverhang returns how far a cell's mask geometry can extend past
// its declared bounding box, in centimicrons. Sticks wires and devices
// are centered on their paths, so material up to half the widest
// element can stick out when the path runs along the box edge; the
// full width is used as a safely generous bound. CIF boxes are
// computed from real geometry and never overhang.
func (sb *Cache) geomOverhang(c *core.Cell) int {
	switch c.Kind {
	case core.LeafSticks:
		w := rules.ContactSize
		for _, wire := range c.Sticks.Wires {
			width := wire.Width
			if width <= 0 {
				width = rules.MinWidth(wire.Layer)
			}
			if width > w {
				w = width
			}
		}
		for _, d := range c.Sticks.Devices {
			// DeviceBoxes extends at most ceil(max(W,L)/2) plus a
			// 3-unit diffusion/implant extension from the device
			// center; W+L+3 safely dominates that
			if e := d.W + d.L + 3; e > w {
				w = e
			}
		}
		return w * c.Sticks.EffUnits()
	case core.Composition:
		over := 0
		for _, in := range c.Instances {
			if o := sb.cellOverhang(in.Cell); o > over {
				over = o
			}
		}
		return over
	default:
		return 0
	}
}

// drawInstance renders every array copy of an instance. Replicated
// instances — the Nx x Ny arrays the paper's composition primitives
// produce — draw only the copies whose box touches the viewport, found
// by arithmetic on the copy grid (core's CopiesTouching), so panning
// around a large array never walks every copy. Copies draw in grid
// order, matching the plain loop, so output is deterministic. Name
// labels can extend arbitrarily far past a box, so ShowNames (in the
// box view, the only mode that renders text) disables culling.
func drawInstance(cv Canvas, v View, in *core.Instance, outer geom.Transform, opt Options, sb *Cache) {
	draw := func(i, j int) { drawInstanceCopy(cv, v, in, i, j, outer, opt, sb) }
	if (opt.ShowNames && !opt.Geometry) || in.Nx*in.Ny < cullMinCopies {
		for i := 0; i < in.Nx; i++ {
			for j := 0; j < in.Ny; j++ {
				draw(i, j)
			}
		}
		return
	}
	// a sticks cell's mask geometry can overhang its declared bounding
	// box (wires are centered on their path), so the cull box grows by
	// the cell's worst-case overhang
	cb := in.Cell.BBox().Inset(-sb.cellOverhang(in.Cell))
	in.CopiesTouching(cb, outer.Inverse().ApplyRect(v.Window.Inset(-cullMargin(v))), draw)
}

func drawInstanceCopy(cv Canvas, v View, in *core.Instance, i, j int, outer geom.Transform, opt Options, sb *Cache) {
	ct := in.CopyTransform(i, j).Then(outer)
	if opt.Geometry && in.Cell.Kind == core.Composition {
		drawCell(cv, v, in.Cell, ct, opt, false, sb)
		return
	}
	if opt.Geometry {
		drawLeafGeometry(cv, v, in.Cell, ct, sb)
		return
	}
	// the Riot instance view: bounding box plus connector
	// crosses; array copies show "the gridding due to the
	// replication"
	drawBoxAndConnectors(cv, v, in.Cell, ct, opt)
	if opt.ShowNames && i == 0 && j == 0 {
		r := v.ToScreenRect(ct.ApplyRect(in.Cell.BBox()))
		cv.Text(geom.Pt(r.Min.X+2, (r.Min.Y+r.Max.Y)/2), in.Name+":"+in.Cell.Name, geom.ColorWhite)
	}
}

func drawBoxAndConnectors(cv Canvas, v View, cell *core.Cell, tr geom.Transform, opt Options) {
	box := cell.BBox()
	cv.Rect(v.ToScreenRect(tr.ApplyRect(box)), geom.ColorWhite)
	for _, cn := range cell.Connectors() {
		at := v.ToScreen(tr.Apply(cn.At))
		size := crossSize(v, cn.Width)
		cv.Cross(at, size, geom.LayerColor(cn.Layer))
		if opt.ShowNames {
			cv.Text(geom.Pt(at.X+size+1, at.Y-3), cn.Name, geom.LayerColor(cn.Layer))
		}
	}
}

// crossSize maps a connector's wire width to a cross radius in device
// units, with a readable minimum.
func crossSize(v View, width int) int {
	if width <= 0 {
		width = rules.MinWidth(geom.NM) * rules.Lambda
	}
	s := v.ToScreen(geom.Pt(v.Window.Min.X+width, v.Window.Min.Y)).X - v.Screen.Min.X
	if s < 2 {
		s = 2
	}
	if s > 12 {
		s = 12
	}
	return s
}

// drawLeafGeometry renders the actual mask geometry of a leaf cell.
func drawLeafGeometry(cv Canvas, v View, cell *core.Cell, tr geom.Transform, sb *Cache) {
	switch cell.Kind {
	case core.LeafCIF:
		drawCIFCulled(cv, v, cell.CIFFile, cell.Symbol, tr, sb)
	case core.LeafSticks:
		sym, err := cell.SticksCIF()
		if err != nil {
			// fall back to the abstract view rather than lose the cell
			drawBoxAndConnectors(cv, v, cell, tr, Options{})
			return
		}
		drawCIFCulled(cv, v, &cif.File{Symbols: []*cif.Symbol{sym}}, sym, tr, sb)
	default:
		drawCell(cv, v, cell, tr, Options{Geometry: true}, false, sb)
	}
}

// drawCIFCulled renders a CIF symbol with viewport culling. The
// symbol-bbox cache lets an offscreen called subtree be skipped with a
// single rectangle test instead of being traversed element by element.
func drawCIFCulled(cv Canvas, v View, f *cif.File, sym *cif.Symbol, tr geom.Transform, sb *Cache) {
	// viewport culling: skip mask shapes wholly outside the (slightly
	// inflated) window; zoomed-in views of big chips draw only what
	// shows
	win := v.Window.Inset(-cullMargin(v))
	vis := func(r geom.Rect) bool { return tr.ApplyRect(r).Touches(win) }
	for _, e := range sym.ResolveScale() {
		switch el := e.(type) {
		case cif.Box:
			if r := el.Rect(); vis(r) {
				cv.FillRect(v.ToScreenRect(tr.ApplyRect(r)), geom.LayerColor(el.Layer))
			}
		case cif.Polygon:
			if !vis(pointsBBox(el.Points)) {
				continue
			}
			for i := 1; i < len(el.Points); i++ {
				cv.Line(v.ToScreen(tr.Apply(el.Points[i-1])), v.ToScreen(tr.Apply(el.Points[i])), geom.LayerColor(el.Layer))
			}
			if n := len(el.Points); n > 2 {
				cv.Line(v.ToScreen(tr.Apply(el.Points[n-1])), v.ToScreen(tr.Apply(el.Points[0])), geom.LayerColor(el.Layer))
			}
		case cif.Wire:
			h := el.Width / 2
			for i := 1; i < len(el.Points); i++ {
				a, b := el.Points[i-1], el.Points[i]
				seg := geom.RectFromPoints(a, b)
				seg = geom.R(seg.Min.X-h, seg.Min.Y-h, seg.Max.X+h, seg.Max.Y+h)
				if vis(seg) {
					cv.FillRect(v.ToScreenRect(tr.ApplyRect(seg)), geom.LayerColor(el.Layer))
				}
			}
		case cif.RoundFlash:
			h := el.Diameter / 2
			r := geom.R(el.Center.X-h, el.Center.Y-h, el.Center.X+h, el.Center.Y+h)
			if vis(r) {
				cv.FillRect(v.ToScreenRect(tr.ApplyRect(r)), geom.LayerColor(el.Layer))
			}
		case cif.Call:
			child := f.SymbolByID(el.SymbolID)
			if child == nil {
				continue
			}
			key := symKey{f, el.SymbolID}
			cb, cached := sb.symBox[key]
			if !cached {
				var err error
				if cb, err = f.SymbolBBox(el.SymbolID); err != nil {
					cb = geom.Rect{} // unknown extent: draw unconditionally
				}
				sb.symBox[key] = cb
			}
			if cb != (geom.Rect{}) && !el.Transform.Then(tr).ApplyRect(cb).Touches(win) {
				continue
			}
			drawCIFCulled(cv, v, f, child, el.Transform.Then(tr), sb)
		case cif.Connector:
			if vis(geom.Rect{Min: el.At, Max: el.At}) {
				cv.Cross(v.ToScreen(tr.Apply(el.At)), crossSize(v, el.Width), geom.LayerColor(el.Layer))
			}
		}
	}
}

// pointsBBox returns the bounding box of a point path.
func pointsBBox(pts []geom.Point) geom.Rect {
	if len(pts) == 0 {
		return geom.Rect{}
	}
	r := geom.Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r = r.UnionPoint(p)
	}
	return r
}

// Describe returns a short textual summary of a view, used in status
// lines.
func Describe(v View) string {
	return fmt.Sprintf("window %v on screen %v", v.Window, v.Screen)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
