package extract

import (
	"testing"

	"riot/internal/core"
	"riot/internal/filter"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/rules"
	"riot/internal/sticks"
)

const L = rules.Lambda

func libDesign(t *testing.T) *core.Design {
	t.Helper()
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestExtractNANDStructure(t *testing.T) {
	d := libDesign(t)
	nand, _ := d.Cell("NAND")
	ckt, err := FromCell(nand)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckt.Transistors) != 3 {
		t.Fatalf("transistors = %d", len(ckt.Transistors))
	}
	enh, dep := 0, 0
	for _, tr := range ckt.Transistors {
		if tr.Kind == sticks.Depletion {
			dep++
			// the depletion pullup's gate is tied to one of its
			// channel ends (the output)
			if tr.Gate != tr.A && tr.Gate != tr.B {
				t.Error("depletion gate not tied to its source")
			}
		} else {
			enh++
		}
	}
	if enh != 2 || dep != 1 {
		t.Errorf("enh/dep = %d/%d", enh, dep)
	}
	// distinct nets for the six interesting labels
	for _, pair := range [][2]string{
		{"A", "B"}, {"A", "OUT"}, {"B", "OUT"},
		{"PWRL", "GNDL"}, {"OUT", "PWRL"}, {"OUT", "GNDL"},
	} {
		if ckt.SameNet(nand, pair[0], pair[1]) {
			t.Errorf("%s and %s shorted", pair[0], pair[1])
		}
	}
}

func TestExtractSeriesChain(t *testing.T) {
	// the NAND pulldowns are in series: B's drain is A's source
	d := libDesign(t)
	nand, _ := d.Cell("NAND")
	ckt, err := FromCell(nand)
	if err != nil {
		t.Fatal(err)
	}
	gnd, _ := ckt.Net(nand, "GNDL")
	out, _ := ckt.Net(nand, "OUT")
	var mid []int
	for _, tr := range ckt.Transistors {
		if tr.Kind != sticks.Enhancement {
			continue
		}
		for _, n := range []int{tr.A, tr.B} {
			if n != gnd && n != out {
				mid = append(mid, n)
			}
		}
	}
	if len(mid) != 2 || mid[0] != mid[1] {
		t.Errorf("series midpoint nets = %v (want one shared net twice)", mid)
	}
}

// TestAbutmentConnectsElectrically: the paper's guarantee, checked at
// the mask level — after ABUT, the joined connectors are one net.
func TestAbutmentConnectsElectrically(t *testing.T) {
	d := libDesign(t)
	top := core.NewComposition("TOP")
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	e, _ := core.NewEditor(d, top)
	a, _ := e.CreateInstance("SRCELL", "a", geom.Identity, 1, 1, 0, 0)
	b, _ := e.CreateInstance("SRCELL", "b", geom.MakeTransform(geom.R0, geom.Pt(60*L, 7*L)), 1, 1, 0, 0)
	if err := e.AddConnection(b, "IN", a, "OUT"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddConnection(b, "PWRL", a, "PWRR"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Abut(false); err != nil {
		t.Fatal(err)
	}
	ckt, err := FromCell(top)
	if err != nil {
		t.Fatal(err)
	}
	if !ckt.SameNet(top, "a.OUT", "b.IN") {
		t.Error("abutted data connectors are not one net")
	}
	if !ckt.SameNet(top, "a.PWRL", "b.PWRR") {
		t.Error("abutted power rails are not one net")
	}
	if ckt.SameNet(top, "a.PWRL", "a.GNDL") {
		t.Error("rails shorted")
	}
}

// TestRouteConnectsElectrically: a river route carries the net across
// the channel.
func TestRouteConnectsElectrically(t *testing.T) {
	d := libDesign(t)
	top := core.NewComposition("TOP")
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	e, _ := core.NewEditor(d, top)
	sr, _ := e.CreateInstance("SRCELL", "sr", geom.MakeTransform(geom.R0, geom.Pt(0, 60*L)), 1, 1, 0, 0)
	g, _ := e.CreateInstance("NAND", "g", geom.MakeTransform(geom.MXR180, geom.Pt(3*L, 20*L)), 1, 1, 0, 0)
	if err := e.AddConnection(g, "A", sr, "TAP"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteConnect(core.RouteOptions{}); err != nil {
		t.Fatal(err)
	}
	ckt, err := FromCell(top)
	if err != nil {
		t.Fatal(err)
	}
	if !ckt.SameNet(top, "g.A", "sr.TAP") {
		t.Error("routed connectors are not one net")
	}
}

// TestStretchConnectsElectrically: a stretched cell still extracts
// correctly and the abutment makes the net.
func TestStretchConnectsElectrically(t *testing.T) {
	d := libDesign(t)
	top := core.NewComposition("TOP")
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	e, _ := core.NewEditor(d, top)
	sr, _ := e.CreateInstance("SRCELL", "sr", geom.MakeTransform(geom.R0, geom.Pt(0, 60*L)), 1, 1, 0, 0)
	g, _ := e.CreateInstance("NAND", "g", geom.MakeTransform(geom.MXR180, geom.Pt(0, 20*L)), 1, 1, 0, 0)
	if err := e.AddConnection(g, "A", sr, "TAP"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StretchConnect(); err != nil {
		t.Fatal(err)
	}
	ckt, err := FromCell(top)
	if err != nil {
		t.Fatal(err)
	}
	if !ckt.SameNet(top, "g.A", "sr.TAP") {
		t.Error("stretch-connected connectors are not one net")
	}
	// the stretched gate is still a working NAND: 3 transistors with
	// the series structure intact
	if len(ckt.Transistors) < 3 {
		t.Errorf("transistors = %d", len(ckt.Transistors))
	}
}

// TestFilterLogicConnectivity extracts the whole figure-9 logic block
// in both variants and checks the intended netlist: every NAND input A
// on its register tap, every NAND output on its OR input.
func TestFilterLogicConnectivity(t *testing.T) {
	for _, variant := range []filter.Variant{filter.Routed, filter.Stretched} {
		_, logic, _, err := filter.BuildLogic(variant)
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		ckt, err := FromCell(logic)
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		type pair struct{ a, b string }
		var pairs []pair
		if variant == filter.Routed {
			for i := 0; i < 4; i++ {
				pairs = append(pairs,
					pair{named("nr.n%d.A", i), named("sr.TAP[%d]", i)},
					pair{named("orr.IN%d", i), named("nr.n%d.OUT", i)},
				)
			}
		} else {
			for i := 0; i < 4; i++ {
				pairs = append(pairs,
					pair{named("n%d.A", i), named("sr.TAP[%d]", i)},
					pair{named("orr.IN%d", i), named("n%d.OUT", i)},
				)
			}
		}
		for _, p := range pairs {
			if !ckt.SameNet(logic, p.a, p.b) {
				t.Errorf("%v: %s and %s are not one net", variant, p.a, p.b)
			}
		}
		// no cross-talk between the gate outputs (the register data
		// track is a positional stand-in and deliberately continuous,
		// so taps are not asserted distinct — see DESIGN.md)
		var out0, out1 string
		if variant == filter.Routed {
			out0, out1 = "nr.n0.OUT", "nr.n1.OUT"
		} else {
			out0, out1 = "n0.OUT", "n1.OUT"
		}
		if ckt.SameNet(logic, out0, out1) {
			t.Errorf("%v: adjacent NAND outputs shorted", variant)
		}
	}
}

func named(f string, i int) string {
	return fmt_(f, i)
}

func fmt_(f string, i int) string {
	out := make([]byte, 0, len(f))
	for j := 0; j < len(f); j++ {
		if f[j] == '%' && j+1 < len(f) && f[j+1] == 'd' {
			out = append(out, byte('0'+i))
			j++
			continue
		}
		out = append(out, f[j])
	}
	return string(out)
}

func TestExtractPad(t *testing.T) {
	d := libDesign(t)
	pad, _ := d.Cell("PADIN")
	ckt, err := FromCell(pad)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ckt.Net(pad, "P"); !ok {
		t.Error("pad connector has no material")
	}
	if len(ckt.Transistors) != 0 {
		t.Error("pad extracted transistors")
	}
}

func TestSubtract(t *testing.T) {
	r := geom.R(0, 0, 10, 10)
	// no overlap
	if got := subtract(r, geom.R(20, 20, 30, 30)); len(got) != 1 || got[0] != r {
		t.Errorf("disjoint subtract = %v", got)
	}
	// horizontal strip through the middle
	got := subtract(r, geom.R(-5, 4, 15, 6))
	if len(got) != 2 {
		t.Fatalf("strip subtract = %v", got)
	}
	area := 0
	for _, p := range got {
		area += p.Area()
	}
	if area != 10*10-10*2 {
		t.Errorf("area = %d", area)
	}
	// corner bite: three pieces
	got = subtract(r, geom.R(6, 6, 14, 14))
	area = 0
	for _, p := range got {
		area += p.Area()
		if !r.ContainsRect(p) {
			t.Errorf("piece %v escapes", p)
		}
		if p.Overlaps(geom.R(6, 6, 14, 14)) {
			t.Errorf("piece %v overlaps the hole", p)
		}
	}
	if area != 100-16 {
		t.Errorf("corner area = %d", area)
	}
}

func TestExtractRotatedGate(t *testing.T) {
	// a rotated NAND still extracts three transistors with A/B/OUT on
	// distinct nets — device geometry follows the instance transform
	d := libDesign(t)
	top := core.NewComposition("TOP")
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	e, _ := core.NewEditor(d, top)
	if _, err := e.CreateInstance("NAND", "g", geom.MakeTransform(geom.R90, geom.Pt(40*L, 0)), 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	ckt, err := FromCell(top)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckt.Transistors) != 3 {
		t.Errorf("transistors = %d", len(ckt.Transistors))
	}
	if ckt.SameNet(top, "g.A", "g.OUT") || ckt.SameNet(top, "g.A", "g.B") {
		t.Error("rotated gate shorted")
	}
}
