// Package flatten turns an assembled Riot cell hierarchy into flat
// per-layer mask geometry in top-level coordinates. It is the shared
// geometry-producing layer under every whole-design analysis in this
// reproduction: the circuit extractor (internal/extract) solves
// connectivity over its output, and the design-rule checker
// (internal/drc) measures widths and spacings on it. Keeping the walk
// in one package means "flatten the hierarchy" is implemented exactly
// once, and every new verification workload starts from the same
// deterministic shape lists.
//
// # What flattening produces
//
// Cell walks the hierarchy and emits, in top-level (centimicron)
// coordinates:
//
//   - Shapes: every mask rectangle, in deterministic walk order
//     (instances in declaration order, array copies in x-major grid
//     order, leaf elements in source order);
//   - Devices: every transistor's gate strip, channel extent and probe
//     points;
//   - Joins: every contact's layer-joining points;
//   - Labels: the point and layer of each of the cell's label sites
//     (core.LabelHead, then every instance connector), in site order,
//     so a solve fills a label table by index.
//
// The walk is one sequential pass: replicated arrays — the paper's
// Nx x Ny composition primitive — flatten copy by copy in grid order.
//
// # Per-layer views
//
// Consumers are query-shaped: the extractor asks "what is at this
// point on this layer", the DRC asks "what is near this rectangle on
// this layer". Result therefore offers per-layer slices (LayerRects)
// and a lazily built geom.Index per layer (LayerIndex), so every
// downstream pass shares one spatial-index build over the same
// geometry.
package flatten

import (
	"fmt"
	"sort"

	"riot/internal/cif"
	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/rules"
	"riot/internal/sticks"
)

// Shape is one rectangle of mask material in top-level coordinates.
// Src identifies the leaf-cell occurrence that produced the rectangle
// (dense ids in walk order): every sticks or CIF leaf the walk enters
// gets the next id, so consumers can tell material that came from one
// pre-designed cell apart from material that two different placements
// contributed. The design-rule checker trusts geometry inside one
// occurrence (leaf cells are "pre-designed" in the paper's workflow)
// and checks spacing only across occurrences — the separations Riot's
// own placement and routing decisions created.
type Shape struct {
	Layer geom.Layer
	R     geom.Rect
	Src   int
}

// Device is a transistor's geometry in flattened (centimicron) space:
// the gate poly strip, the diffusion channel extent, and probe points
// just beyond the gate on either channel end.
// Devices come in walk order, each leaf occurrence's contiguous and in
// the leaf's source order, which is the order the LVS reference lists
// its devices in.
type Device struct {
	Kind    sticks.DeviceKind
	Gate    geom.Rect
	Channel geom.Rect
	ProbeA  geom.Point
	ProbeB  geom.Point
}

// Join is a contact: two points (usually coincident) whose material is
// electrically joined across two layers. LayerNone as the second layer
// means "any layer below the cut" — the rule CIF NC boxes use.
type Join struct {
	At     [2]geom.Point
	Layers [2]geom.Layer
}

// Label is one label site's probe point and layer.
type Label struct {
	At    geom.Point
	Layer geom.Layer
}

// Result is the flattened design: shape, device and join lists in
// deterministic walk order, plus the label sites. The per-layer views
// (Layers, LayerRects, LayerIndex) are derived lazily and cached; a
// Result is not safe for concurrent use once those accessors are
// involved.
type Result struct {
	Shapes  []Shape
	Devices []Device
	Joins   []Join
	// Labels holds the cell's label sites in core's site order: the
	// connectors core.LabelHead returns, then every top-level
	// instance's visible connectors (Instance.Sites). A site carries no
	// name; core.LabelMap names a table of them.
	Labels []Label

	// SrcBoxes holds, indexed by Shape.Src, each leaf occurrence's
	// declared bounding box placed into top-level coordinates — the
	// placement contract of that occurrence. Consumers use it to tell
	// deliberate abutment (boxes touching) from accidental proximity.
	SrcBoxes []geom.Rect

	byLayer map[geom.Layer][]geom.Rect
	bySrc   map[geom.Layer][]int
	indexes map[geom.Layer]*geom.Index
	layers  []geom.Layer
}

// Cell flattens a cell hierarchy.
func Cell(c *core.Cell) (*Result, error) {
	return CellAt(c, geom.Identity)
}

// CellAt flattens a cell hierarchy under an explicit placement
// transform: every shape, device, join and label lands in the
// transformed frame. The hierarchical certificate engine flattens each
// distinct cell once per orientation with CellAt (orientation changes
// fragment emission order, so a rotated placement cannot reuse an
// identity-orientation flatten by transforming its output).
func CellAt(c *core.Cell, tr geom.Transform) (*Result, error) {
	b := &builder{}
	if err := b.cell(c, tr); err != nil {
		return nil, err
	}
	res := b.result()
	for _, cn := range core.LabelHead(c) {
		res.Labels = append(res.Labels, Label{tr.Apply(cn.At), cn.Layer})
	}
	for _, in := range c.Instances {
		conns := in.Cell.Connectors()
		in.Sites(conns, func(i, j, k int) {
			at := in.CopyTransform(i, j).Then(tr).Apply(conns[k].At)
			res.Labels = append(res.Labels, Label{at, conns[k].Layer})
		})
	}
	return res, nil
}

// Layers returns the layers present in the flattened design, sorted by
// CIF name for deterministic iteration.
func (r *Result) Layers() []geom.Layer {
	r.buildLayers()
	return r.layers
}

// LayerRects returns the layer's rectangles in walk order. The slice
// is shared with the Result; callers must not mutate it.
func (r *Result) LayerRects(l geom.Layer) []geom.Rect {
	r.buildLayers()
	return r.byLayer[l]
}

// LayerSrcs returns, aligned with LayerRects, the leaf occurrence id
// of each of the layer's rectangles. The slice is shared with the
// Result; callers must not mutate it.
func (r *Result) LayerSrcs(l geom.Layer) []int {
	r.buildLayers()
	return r.bySrc[l]
}

// LayerIndex returns a geom.Index over the layer's rectangles (ids are
// LayerRects positions), built on first use and cached.
func (r *Result) LayerIndex(l geom.Layer) *geom.Index {
	r.buildLayers()
	if ix, ok := r.indexes[l]; ok {
		return ix
	}
	ix := geom.NewIndexFrom(r.byLayer[l])
	ix.Build()
	if r.indexes == nil {
		r.indexes = map[geom.Layer]*geom.Index{}
	}
	r.indexes[l] = ix
	return ix
}

func (r *Result) buildLayers() {
	if r.byLayer != nil {
		return
	}
	// count first so every per-layer slice allocates exactly once
	counts := map[geom.Layer]int{}
	for _, s := range r.Shapes {
		counts[s.Layer]++
	}
	r.byLayer = make(map[geom.Layer][]geom.Rect, len(counts))
	r.bySrc = make(map[geom.Layer][]int, len(counts))
	for l, n := range counts {
		r.byLayer[l] = make([]geom.Rect, 0, n)
		r.bySrc[l] = make([]int, 0, n)
	}
	for _, s := range r.Shapes {
		r.byLayer[s.Layer] = append(r.byLayer[s.Layer], s.R)
		r.bySrc[s.Layer] = append(r.bySrc[s.Layer], s.Src)
	}
	r.layers = make([]geom.Layer, 0, len(r.byLayer))
	for l := range r.byLayer {
		r.layers = append(r.layers, l)
	}
	sort.Slice(r.layers, func(i, j int) bool { return r.layers[i] < r.layers[j] })
}

// builder accumulates flattened geometry during the walk.
type builder struct {
	shapes  []Shape
	devices []Device
	joins   []Join
	// srcBoxes holds one box per leaf occurrence entered so far; the
	// current leaf's shapes carry the last one's index as their Src id.
	srcBoxes []geom.Rect
}

// result wraps the walk's lists, without labels, as a Result.
func (b *builder) result() *Result {
	return &Result{
		Shapes:   b.shapes,
		Devices:  b.devices,
		Joins:    b.joins,
		SrcBoxes: b.srcBoxes,
	}
}

func (b *builder) cell(c *core.Cell, tr geom.Transform) error {
	switch c.Kind {
	case core.Composition:
		for _, in := range c.Instances {
			if err := b.instance(in, tr); err != nil {
				return err
			}
		}
		return nil
	case core.LeafSticks:
		b.enterLeaf(c, tr)
		return b.sticksLeaf(c.Sticks, tr)
	default:
		b.enterLeaf(c, tr)
		return b.cifLeaf(c.CIFFile, c.Symbol, tr)
	}
}

// enterLeaf opens the next leaf occurrence: allocates its id and
// records its placed bounding box.
func (b *builder) enterLeaf(c *core.Cell, tr geom.Transform) {
	b.srcBoxes = append(b.srcBoxes, tr.ApplyRect(c.BBox()))
}

// src is the occurrence id of the leaf currently being flattened.
func (b *builder) src() int { return len(b.srcBoxes) - 1 }

// instance flattens every array copy of an instance in grid order
// (i outer, j inner).
func (b *builder) instance(in *core.Instance, tr geom.Transform) error {
	for i := 0; i < in.Nx; i++ {
		for j := 0; j < in.Ny; j++ {
			if err := b.cell(in.Cell, in.CopyTransform(i, j).Then(tr)); err != nil {
				return err
			}
		}
	}
	return nil
}

// sticksLeaf flattens a symbolic cell's material.
func (b *builder) sticksLeaf(sc *sticks.Cell, tr geom.Transform) error {
	u := sc.EffUnits()
	sr := func(r geom.Rect) geom.Rect {
		return tr.ApplyRect(geom.R(r.Min.X*u, r.Min.Y*u, r.Max.X*u, r.Max.Y*u))
	}
	sp := func(p geom.Point) geom.Point { return tr.Apply(geom.Pt(p.X*u, p.Y*u)) }

	for _, w := range sc.Wires {
		width := w.Width
		if width <= 0 {
			width = rules.MinWidth(w.Layer)
		}
		h1, h2 := width/2, width-width/2
		for i := 1; i < len(w.Points); i++ {
			seg := geom.RectFromPoints(w.Points[i-1], w.Points[i])
			seg = geom.R(seg.Min.X-h1, seg.Min.Y-h1, seg.Max.X+h2, seg.Max.Y+h2)
			b.shapes = append(b.shapes, Shape{w.Layer, sr(seg), b.src()})
		}
	}
	for _, ct := range sc.Contacts {
		h := rules.ContactSize / 2
		pad := geom.R(ct.At.X-h, ct.At.Y-h, ct.At.X+h, ct.At.Y+h)
		b.shapes = append(b.shapes,
			Shape{ct.From, sr(pad), b.src()}, Shape{ct.To, sr(pad), b.src()})
		b.joins = append(b.joins, Join{
			At:     [2]geom.Point{sp(ct.At), sp(ct.At)},
			Layers: [2]geom.Layer{ct.From, ct.To},
		})
	}
	for _, d := range sc.Devices {
		gate, channel, _, err := sticks.DeviceBoxes(d)
		if err != nil {
			return err
		}
		// probes just beyond the gate along the channel axis
		var pa, pb geom.Point
		if d.Vertical {
			pa = geom.Pt(d.At.X, gate.Min.Y-1)
			pb = geom.Pt(d.At.X, gate.Max.Y+1)
		} else {
			pa = geom.Pt(gate.Min.X-1, d.At.Y)
			pb = geom.Pt(gate.Max.X+1, d.At.Y)
		}
		dev := Device{
			Kind:    d.Kind,
			Gate:    sr(gate),
			Channel: sr(channel),
			ProbeA:  sp(pa),
			ProbeB:  sp(pb),
		}
		b.devices = append(b.devices, dev)
		// the gate strip is poly material connected to whatever poly
		// feeds it; the channel is diffusion (split at the gate by the
		// extractor)
		b.shapes = append(b.shapes, Shape{geom.NP, dev.Gate, b.src()})
		b.shapes = append(b.shapes, Shape{geom.ND, dev.Channel, b.src()})
	}
	return nil
}

// cifLeaf flattens CIF geometry (pads); CIF leaves carry no extracted
// devices, only material.
func (b *builder) cifLeaf(f *cif.File, sym *cif.Symbol, tr geom.Transform) error {
	for _, e := range sym.ResolveScale() {
		switch el := e.(type) {
		case cif.Box:
			b.shapes = append(b.shapes, Shape{el.Layer, tr.ApplyRect(el.Rect()), b.src()})
		case cif.Wire:
			h1, h2 := el.Width/2, el.Width-el.Width/2
			for i := 1; i < len(el.Points); i++ {
				seg := geom.RectFromPoints(el.Points[i-1], el.Points[i])
				seg = geom.R(seg.Min.X-h1, seg.Min.Y-h1, seg.Max.X+h2, seg.Max.Y+h2)
				b.shapes = append(b.shapes, Shape{el.Layer, tr.ApplyRect(seg), b.src()})
			}
		case cif.Call:
			child := f.SymbolByID(el.SymbolID)
			if child == nil {
				return fmt.Errorf("flatten: call of undefined symbol %d", el.SymbolID)
			}
			if err := b.cifLeaf(f, child, el.Transform.Then(tr)); err != nil {
				return err
			}
		case cif.Polygon, cif.RoundFlash, cif.Connector, cif.UserExt:
			// polygons/flashes are rare decorations in this library;
			// connectivity and rule checking ignore them
		}
	}
	// contacts inside CIF cells: an NC cut joins NM with NP/ND below;
	// model each NC box as a join between NM and whichever other layer
	// is present at its center
	for _, e := range sym.ResolveScale() {
		if el, ok := e.(cif.Box); ok && el.Layer == geom.NC {
			at := tr.Apply(el.Center)
			b.joins = append(b.joins, Join{
				At:     [2]geom.Point{at, at},
				Layers: [2]geom.Layer{geom.NM, geom.LayerNone},
			})
		}
	}
	return nil
}
