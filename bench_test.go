// Benchmarks regenerating every figure of the paper's evaluation, plus
// the scaling and ablation studies DESIGN.md calls out. The paper has
// no numeric tables; what it shows are figures 1-10 and qualitative
// area/effort claims, so each benchmark both times the operation and
// reports the figure's headline numbers as benchmark metrics
// (lambda-heights, areas, channel counts). EXPERIMENTS.md records the
// paper-vs-measured comparison.
package riot

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/fstest"

	"riot/internal/compact"
	"riot/internal/core"
	"riot/internal/display"
	"riot/internal/filter"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/raster"
	"riot/internal/river"
	"riot/internal/rules"
	"riot/internal/shell"
	"riot/internal/sticks"
	"riot/internal/workstation"
)

const lam = rules.Lambda

// ---- Figure 1: the two workstation configurations ----

func BenchmarkFig1Workstations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ch := workstation.Charles()
		gg := workstation.GIGI()
		if !ch.HasPlotter() || gg.HasPlotter() {
			b.Fatal("configurations wrong")
		}
		_ = ch.Describe()
		_ = gg.Describe()
	}
}

// ---- Figure 2: the display organization (editing area + menus) ----

func BenchmarkFig2DisplayOrganization(b *testing.B) {
	s := newBenchSession(b)
	mustExec(b, s, "READ nand.sticks", "EDIT TOP", "CREATE NAND g1 AT 0 0",
		"CREATE NAND g2 AT 30 0", "CONNECT g2.PWRL g1.PWRR")
	u, ws, err := s.OpenWorkstation("charles")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Render()
	}
	b.StopTimer()
	if ws.Screen.CountColor(geom.ColorWhite) == 0 {
		b.Fatal("blank screen")
	}
}

// ---- Figure 3: the instance view (bounding box + connector crosses) ----

func BenchmarkFig3InstanceView(b *testing.B) {
	cells, err := lib.Cells()
	if err != nil {
		b.Fatal(err)
	}
	var sr *core.Cell
	for _, c := range cells {
		if c.Name == "SRCELL" {
			sr = c
		}
	}
	in := core.NewInstance("sr", sr, geom.Identity)
	im := raster.New(400, 300)
	v := display.FitView(in.BBox(), geom.R(0, 0, 399, 299), true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im.Clear(geom.ColorBlack)
		display.DrawInstance(display.RasterCanvas{Im: im}, v, in, display.Options{ShowNames: true})
	}
}

// ---- Figure 4: connection by abutment ----

func BenchmarkFig4Abutment(b *testing.B) {
	s := newBenchSession(b)
	mustExec(b, s, "READ nand.sticks", "EDIT TOP",
		"CREATE NAND g1 AT 0 0", "CREATE NAND g2 AT 50 9")
	top, _ := s.Design().Cell("TOP")
	g2, _ := top.InstanceByName("g2")
	ed := s.Editor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ed.PlaceInstance(g2, geom.MakeTransform(geom.R0, geom.Pt(50*lam, 9*lam)))
		mustExec(b, s, "CONNECT g2.PWRL g1.PWRR", "CONNECT g2.GNDL g1.GNDR")
		b.StartTimer()
		if _, err := ed.Abut(false); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 5: connection by routing ----

func BenchmarkFig5RiverRoute(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := core.NewDesign()
		if err := lib.Install(d); err != nil {
			b.Fatal(err)
		}
		topCell := core.NewComposition("TOP")
		if err := d.AddCell(topCell); err != nil {
			b.Fatal(err)
		}
		ed, _ := core.NewEditor(d, topCell)
		sr, _ := ed.CreateInstance("SRCELL", "sr", geom.MakeTransform(geom.R0, geom.Pt(0, 60*lam)), 1, 1, 0, 0)
		g, _ := ed.CreateInstance("NAND", "g", geom.MakeTransform(geom.MXR180, geom.Pt(3*lam, 20*lam)), 1, 1, 0, 0)
		if err := ed.AddConnection(g, "A", sr, "TAP"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := ed.RouteConnect(core.RouteOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 6: connection by stretching ----

func BenchmarkFig6Stretch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := core.NewDesign()
		if err := lib.Install(d); err != nil {
			b.Fatal(err)
		}
		topCell := core.NewComposition("TOP")
		if err := d.AddCell(topCell); err != nil {
			b.Fatal(err)
		}
		ed, _ := core.NewEditor(d, topCell)
		sr, _ := ed.CreateInstance("SRCELL", "sr", geom.MakeTransform(geom.R0, geom.Pt(0, 60*lam)), 1, 1, 0, 0)
		g, _ := ed.CreateInstance("NAND", "g", geom.MakeTransform(geom.MXR180, geom.Pt(0, 20*lam)), 1, 1, 0, 0)
		if err := ed.AddConnection(g, "A", sr, "TAP"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := ed.StretchConnect(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 7: the floorplan (placement only) ----

func BenchmarkFig7Floorplan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := core.NewDesign()
		if err := lib.Install(d); err != nil {
			b.Fatal(err)
		}
		topCell := core.NewComposition("PLAN")
		if err := d.AddCell(topCell); err != nil {
			b.Fatal(err)
		}
		ed, _ := core.NewEditor(d, topCell)
		// the rough floorplan: register row over gate row over OR,
		// pads around
		if _, err := ed.CreateInstance("SRCELL", "sr", geom.MakeTransform(geom.R0, geom.Pt(0, 100*lam)), 4, 1, 0, 0); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if _, err := ed.CreateInstance("NAND", fmt.Sprintf("n%d", j), geom.MakeTransform(geom.R0, geom.Pt(20*j*lam, 60*lam)), 1, 1, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := ed.CreateInstance("OR4", "or", geom.MakeTransform(geom.R0, geom.Pt(0, 20*lam)), 1, 1, 0, 0); err != nil {
			b.Fatal(err)
		}
		if topCell.BBox().Empty() {
			b.Fatal("empty floorplan")
		}
	}
}

// ---- Figure 8: the leaf cells (library generation + interchange) ----

func BenchmarkFig8LeafCells(b *testing.B) {
	for i := 0; i < b.N; i++ {
		files, err := lib.Files()
		if err != nil {
			b.Fatal(err)
		}
		// round-trip the symbolic cells through the interchange format
		for name, data := range files {
			if !strings.HasSuffix(name, ".sticks") {
				continue
			}
			if _, err := sticks.ParseAll(strings.NewReader(string(data))); err != nil {
				b.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// ---- Figure 9a/9b: the logic block, routed vs stretched ----

func BenchmarkFig9aRoutedLogic(b *testing.B) {
	var st *filter.Stats
	for i := 0; i < b.N; i++ {
		var err error
		_, _, st, err = filter.BuildLogic(filter.Routed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.LogicHeight), "λ-height")
	b.ReportMetric(float64(st.LogicArea), "λ²-area")
	b.ReportMetric(float64(st.ChannelHeight), "λ-channels")
}

func BenchmarkFig9bStretchedLogic(b *testing.B) {
	var st *filter.Stats
	for i := 0; i < b.N; i++ {
		var err error
		_, _, st, err = filter.BuildLogic(filter.Stretched)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.LogicHeight), "λ-height")
	b.ReportMetric(float64(st.LogicArea), "λ²-area")
	b.ReportMetric(float64(st.ChannelHeight), "λ-channels")
}

// ---- Figure 10: the completed chip ----

func BenchmarkFig10FullChip(b *testing.B) {
	var cst *filter.ChipStats
	var chip *core.Cell
	for i := 0; i < b.N; i++ {
		var err error
		_, chip, cst, err = filter.BuildChip(filter.Stretched)
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, err := core.ExportCIF(chip); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(cst.ChipArea), "λ²-area")
	b.ReportMetric(float64(cst.PadCount), "pads")
}

// BenchmarkFig10Signoff is the in-process twin of riotbench's
// assemble_fig10 op without its CIF export: each op builds one
// figure-10 chip, the stretched and the routed variant in turn, opens
// a fresh Session over its design, and signs the chip off with LVS and
// the full verify (extract + DRC), both of which must come back clean.
func BenchmarkFig10Signoff(b *testing.B) {
	variants := []filter.Variant{filter.Stretched, filter.Routed}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, chip, _, err := filter.BuildChip(variants[i%len(variants)])
		mustNil(b, err)
		s := newBenchSession(b)
		s.Shell.Design = d
		res, err := s.CheckLVS(chip.Name)
		mustNil(b, err)
		rep, err := s.VerifyCell(chip.Name)
		mustNil(b, err)
		if !res.Clean || !rep.Clean() {
			b.Fatalf("%v chip not clean: LVS %v, verify %v", variants[i%len(variants)], res.Mismatches, rep.Violations)
		}
	}
}

// ---- Ablation: one-to-many vs the wrapper-cell workaround ----

func BenchmarkOneToManyDirect(b *testing.B) {
	// connect one instance to two others directly (legal one-to-many)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, ed := benchEditor(b)
		a1, _ := ed.CreateInstance("SRCELL", "a1", geom.Identity, 1, 1, 0, 0)
		a2, _ := ed.CreateInstance("SRCELL", "a2", geom.MakeTransform(geom.R0, geom.Pt(20*lam, 0)), 1, 1, 0, 0)
		g, _ := ed.CreateInstance("OR4", "g", geom.MakeTransform(geom.MXR180, geom.Pt(0, -40*lam)), 1, 1, 0, 0)
		mustNil(b, ed.AddConnection(g, "IN0", a1, "TAP"))
		mustNil(b, ed.AddConnection(g, "IN1", a2, "TAP"))
		b.StartTimer()
		if _, err := ed.RouteConnect(core.RouteOptions{}); err != nil {
			b.Fatal(err)
		}
		_ = d
	}
}

func BenchmarkManyToManyViaWrapper(b *testing.B) {
	// the workaround: wrap one side in a composition cell first
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, ed := benchEditor(b)
		b.StartTimer()
		wrap := core.NewComposition(fmt.Sprintf("PAIR%d", i))
		if err := d.AddCell(wrap); err != nil {
			b.Fatal(err)
		}
		we, _ := core.NewEditor(d, wrap)
		if _, err := we.CreateInstance("SRCELL", "a1", geom.Identity, 1, 1, 0, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := we.CreateInstance("SRCELL", "a2", geom.MakeTransform(geom.R0, geom.Pt(20*lam, 0)), 1, 1, 0, 0); err != nil {
			b.Fatal(err)
		}
		p, err := ed.CreateInstance(wrap.Name, "p", geom.Identity, 1, 1, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		g, _ := ed.CreateInstance("OR4", "g", geom.MakeTransform(geom.MXR180, geom.Pt(0, -40*lam)), 1, 1, 0, 0)
		mustNil(b, ed.AddConnection(g, "IN0", p, "a1.TAP"))
		mustNil(b, ed.AddConnection(g, "IN1", p, "a2.TAP"))
		if _, err := ed.RouteConnect(core.RouteOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation: route-and-move vs route-in-place ----

func BenchmarkRouteAndMove(b *testing.B) { benchRouteVariant(b, false) }
func BenchmarkRouteNoMove(b *testing.B)  { benchRouteVariant(b, true) }

func benchRouteVariant(b *testing.B, noMove bool) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, ed := benchEditor(b)
		sr, _ := ed.CreateInstance("SRCELL", "sr", geom.MakeTransform(geom.R0, geom.Pt(0, 60*lam)), 1, 1, 0, 0)
		g, _ := ed.CreateInstance("NAND", "g", geom.MakeTransform(geom.MXR180, geom.Pt(3*lam, 20*lam)), 1, 1, 0, 0)
		mustNil(b, ed.AddConnection(g, "A", sr, "TAP"))
		b.StartTimer()
		if _, err := ed.RouteConnect(core.RouteOptions{NoMove: noMove}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation: channel capacity (single vs multi-channel routing) ----

func BenchmarkChannelCapacity(b *testing.B) {
	bottom, top := shiftedRows(12)
	for _, cap := range []int{1, 2, 8, 1000} {
		b.Run(fmt.Sprintf("tracks=%d", cap), func(b *testing.B) {
			var res *river.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = river.Route(bottom, top, river.Options{TracksPerChannel: cap})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Channels), "channels")
			b.ReportMetric(float64(res.Height), "λ-height")
		})
	}
}

// ---- Scaling: router, compactor, assembly, replay ----

func BenchmarkRiverScaling(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256} {
		bottom, top := shiftedRows(n)
		b.Run(fmt.Sprintf("nets=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := river.Route(bottom, top, river.Options{TracksPerChannel: 1000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCompactScaling(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		cell := combCell(n)
		b.Run(fmt.Sprintf("wires=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compactStretch(cell, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAssemblyScaling(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("cells=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, ed := benchEditor(b)
				if _, err := ed.CreateInstance("SRCELL", "row", geom.Identity, n, 1, 0, 0); err != nil {
					b.Fatal(err)
				}
				top, _ := ed.Cell.InstanceByName("row")
				if len(top.Connectors()) == 0 {
					b.Fatal("no connectors")
				}
			}
		})
	}
}

func BenchmarkReplayAfterLeafEdit(b *testing.B) {
	// record once
	rec := shell.New(io.Discard)
	files, err := lib.Files()
	if err != nil {
		b.Fatal(err)
	}
	fsys := fstest.MapFS{}
	for name, data := range files {
		fsys[name] = &fstest.MapFile{Data: data}
	}
	rec.FS = fsys
	mustNil(b, rec.ExecAll(
		"READ srcell.sticks", "READ nand.sticks", "EDIT TOP",
		"CREATE SRCELL sr AT 0 40", "CREATE NAND g AT 0 20 ORIENT MXR180",
		"CONNECT g.A sr.TAP", "STRETCH",
	))
	// edited leaf: A input moved
	edited := strings.ReplaceAll(string(files["nand.sticks"]),
		"CONNECTOR A 16 0", "CONNECTOR A 14 0")
	edited = strings.ReplaceAll(edited, "WIRE NP 2 16 0 16 9 10 9", "WIRE NP 2 14 0 14 9 10 9")
	fsys2 := fstest.MapFS{}
	for name, data := range files {
		fsys2[name] = &fstest.MapFile{Data: data}
	}
	fsys2["nand.sticks"] = &fstest.MapFile{Data: []byte(edited)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh := shell.New(io.Discard)
		sh.FS = fsys2
		if err := rec.Journal.Replay(sh.Exec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullScreenRedraw measures the interactive feel: a complete
// figure-2 screen repaint of the figure-10 chip.
func BenchmarkFullScreenRedraw(b *testing.B) {
	_, chip, _, err := filter.BuildChip(filter.Stretched)
	if err != nil {
		b.Fatal(err)
	}
	im := raster.New(768, 512)
	v := display.FitView(chip.BBox(), geom.R(0, 0, 767, 511), true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im.Clear(geom.ColorBlack)
		display.DrawCell(display.RasterCanvas{Im: im}, v, chip, display.Options{Geometry: true})
	}
}

// BenchmarkUIGesture measures one full pointer gesture: menu click,
// editing-area click, re-render.
func BenchmarkUIGesture(b *testing.B) {
	s := newBenchSession(b)
	mustExec(b, s, "READ nand.sticks", "EDIT TOP")
	u, ws, err := s.OpenWorkstation("charles")
	if err != nil {
		b.Fatal(err)
	}
	_, cellMenu, _ := u.Layout()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Click(geom.Pt(cellMenu.Min.X+5, cellMenu.Min.Y+15))
		if err := u.RunPending(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- helpers ----

func newBenchSession(b *testing.B) *Session {
	b.Helper()
	s, err := NewSession(io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func mustExec(b *testing.B, s *Session, lines ...string) {
	b.Helper()
	if err := s.ExecAll(lines...); err != nil {
		b.Fatal(err)
	}
}

func mustNil(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

func benchEditor(b *testing.B) (*core.Design, *core.Editor) {
	b.Helper()
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		b.Fatal(err)
	}
	topCell := core.NewComposition("TOP")
	if err := d.AddCell(topCell); err != nil {
		b.Fatal(err)
	}
	ed, err := core.NewEditor(d, topCell)
	if err != nil {
		b.Fatal(err)
	}
	return d, ed
}

// shiftedRows builds n metal terminals shifted right by half a pitch,
// forcing a jog on every net.
func shiftedRows(n int) (bottom, top []river.Terminal) {
	pitch := rules.Pitch(geom.NM) + 2
	for i := 0; i < n; i++ {
		bottom = append(bottom, river.Terminal{X: i * pitch, Layer: geom.NM})
		top = append(top, river.Terminal{X: i*pitch + pitch/2, Layer: geom.NM})
	}
	return bottom, top
}

// combCell builds a comb of n vertical poly wires with top connectors,
// a stretchable structure of adjustable size.
func combCell(n int) *sticks.Cell {
	pitch := rules.Pitch(geom.NP)
	c := &sticks.Cell{Name: "COMB", Box: geom.R(0, 0, n*pitch, 20), HasBox: true}
	c.Wires = append(c.Wires, sticks.Wire{Layer: geom.NM, Width: 4,
		Points: []geom.Point{{X: 0, Y: 2}, {X: n * pitch, Y: 2}}})
	for i := 0; i < n; i++ {
		x := i * pitch
		c.Wires = append(c.Wires, sticks.Wire{Layer: geom.NP, Width: 2,
			Points: []geom.Point{{X: x, Y: 6}, {X: x, Y: 20}}})
		c.Connectors = append(c.Connectors, sticks.Connector{
			Name: fmt.Sprintf("T%d", i), At: geom.Pt(x, 20), Layer: geom.NP, Width: 2, Side: geom.SideTop,
		})
	}
	return c
}

// compactStretch stretches the comb so its last tooth doubles its
// distance from the first — a representative optimizer workload.
func compactStretch(c *sticks.Cell, n int) (*sticks.Cell, error) {
	pitch := rules.Pitch(geom.NP)
	return compact.Stretch(c, sticks.AxisX, []compact.Pin{
		{Connector: fmt.Sprintf("T%d", n-1), Coord: (n - 1) * pitch * 2},
	})
}
