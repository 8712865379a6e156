package hier

import (
	"fmt"
	"testing"

	"riot/internal/core"
	"riot/internal/faultinject"
	"riot/internal/geom"
	"riot/internal/obs"
	"riot/internal/rules"
)

// placedGrid builds a composition of nx x ny individually placed
// SRCELLs at abutting pitch (no array instance, so the array fast
// path never applies). shove, when non-nil, overrides the transform of
// one placement by index.
func placedGrid(t testing.TB, name string, nx, ny int, shove map[int]geom.Transform) (*core.Design, *core.Cell) {
	t.Helper()
	d, top := newDesign(t, name)
	sr, _ := d.Cell("SRCELL")
	for i := 0; i < nx*ny; i++ {
		x, y := i%nx, i/nx
		tr := geom.MakeTransform(geom.R0, geom.Pt(x*20*rules.Lambda, y*24*rules.Lambda))
		if s, ok := shove[i]; ok {
			tr = s
		}
		top.Instances = append(top.Instances, core.NewInstance(fmt.Sprintf("c%d", i), sr, tr))
	}
	return d, top
}

// mustDecline runs the engine on c and requires a whole decline with
// the given condition, recorded as the engine's last decline and
// counted as a fallback, on a design the flat reference decides.
func mustDecline(t *testing.T, e *Engine, c *core.Cell, cond Cond) *Decline {
	t.Helper()
	before := e.Stats().Fallbacks
	if _, ok := e.Verify(c); ok {
		t.Fatalf("%s: engine composed a run it must decline (%s)", c.Name, cond)
	}
	d := e.LastDeclineInfo()
	if d == nil || d.Cond != cond {
		t.Fatalf("%s: decline = %+v, want condition %s", c.Name, d, cond)
	}
	if got := e.Stats().Fallbacks - before; got != 1 {
		t.Fatalf("%s: decline counted %d fallback(s), want 1", c.Name, got)
	}
	if ckt, cktErr, _ := flatVerdict(t, c); cktErr != nil || ckt == nil {
		t.Fatalf("%s: flat reference failed on the declined design: %v", c.Name, cktErr)
	}
	return d
}

// TestHierPendDecline forces a pend certificate through fault
// injection: a run placing the pend cell declines whole, naming the
// cell and its first placement, and the flat reference decides. On an
// array the fast path's lattice sees the pend certificate too and leaves
// the decline to the general path.
func TestHierPendDecline(t *testing.T) {
	d, grid := placedGrid(t, "PEND", 3, 3, nil)
	nand, _ := d.Cell("NAND")
	grid.Instances = append(grid.Instances, core.NewInstance("n", nand,
		geom.MakeTransform(geom.R0, geom.Pt(64*rules.Lambda, 0))))

	for _, tc := range []struct {
		top       *core.Cell
		cell      string
		placement int
	}{
		{grid, "NAND", 9},
		{srArray(t, 16, 16, geom.R0), "SRCELL", 0},
	} {
		e := New()
		e.Log = obs.Discard
		e.Faults = faultinject.New()
		e.Faults.Enable(faultinject.CertPend, tc.cell)
		dc := mustDecline(t, e, tc.top, CondPend)
		if e.Faults.Hits(faultinject.CertPend) == 0 {
			t.Fatalf("%s: cert-pend fault armed but never fired", tc.top.Name)
		}
		if dc.Cell != tc.cell || dc.Placement != tc.placement {
			t.Errorf("%s: decline names cell %q placement %d, want %s placement %d",
				tc.top.Name, dc.Cell, dc.Placement, tc.cell, tc.placement)
		}
		if e.Stats().FastRuns != 0 {
			t.Errorf("%s: fast path claimed a pend run", tc.top.Name)
		}
	}
}

// TestHierPoisonDecline forces fragmentation poison on the center
// placement's pair templates: the run declines whole and the flat
// reference decides.
func TestHierPoisonDecline(t *testing.T) {
	_, top := placedGrid(t, "POISON", 3, 3, nil)

	e := New()
	e.Log = obs.Discard
	e.Faults = faultinject.New()
	e.Faults.Enable(faultinject.TemplatePoison, "4") // center occurrence
	dc := mustDecline(t, e, top, CondPoison)
	if e.Faults.Hits(faultinject.TemplatePoison) == 0 {
		t.Fatal("template-poison fault armed but never fired")
	}
	if dc.Cell != "SRCELL" || dc.Placement < 0 || dc.Placement > 4 {
		t.Errorf("decline names cell %q placement %d, want an SRCELL pairing with the center", dc.Cell, dc.Placement)
	}
}

// TestHierRealPoisonDecline shoves the center cell of a 3x3 grid into
// its neighbors — the documented organic poison condition (a gate
// buried under a neighbor's diffusion changes fragmentation itself).
// Across the sweep some shove must poison and decline, some must still
// compose, and every composed verdict must equal flat, including the
// rotated placements.
func TestHierRealPoisonDecline(t *testing.T) {
	e := New()
	e.Log = obs.Discard
	accepted, poisoned := 0, 0
	for _, tc := range []struct {
		dx, dy int
		o      geom.Orient
	}{
		{-4, 0, geom.R0}, {4, 0, geom.R0}, {0, -4, geom.R0}, {0, 4, geom.R0},
		{-4, -4, geom.R0}, {4, 4, geom.R0}, {-6, 0, geom.R0}, {0, -6, geom.R0},
		{-4, 0, geom.R90}, {0, -4, geom.R90}, {0, 0, geom.R90}, {-4, -4, geom.MX},
	} {
		name := fmt.Sprintf("SHOVE%d_%d_O%d", tc.dx+8, tc.dy+8, tc.o)
		shoved := geom.MakeTransform(tc.o,
			geom.Pt((20+tc.dx)*rules.Lambda, (24+tc.dy)*rules.Lambda))
		_, top := placedGrid(t, name, 3, 3, map[int]geom.Transform{4: shoved})
		if mustMatch(t, e, top, name) {
			accepted++
			continue
		}
		if d := e.LastDeclineInfo(); d == nil || d.Cond != CondPoison {
			t.Fatalf("%s: decline = %+v, want condition %s", name, d, CondPoison)
		}
		poisoned++
	}
	if accepted == 0 {
		t.Error("engine declined every shoved grid; shallow shoves should compose")
	}
	if poisoned == 0 {
		t.Error("no shove poisoned; deep overlap should bury at least one gate")
	}
}

// TestHierComposeBudgetDecline pins the compose-budget fault: the
// general path declines before pairing placements, and so does the
// array fast path, whose lattice composes through the same code.
func TestHierComposeBudgetDecline(t *testing.T) {
	_, grid := placedGrid(t, "NOBUDGET", 3, 3, nil)
	for _, top := range []*core.Cell{grid, srArray(t, 16, 16, geom.R0)} {
		e := New()
		e.Log = obs.Discard
		e.Faults = faultinject.New()
		e.Faults.Enable(faultinject.ComposeBudget, "")
		mustDecline(t, e, top, CondComposeBudget)
		if e.Faults.Hits(faultinject.ComposeBudget) == 0 {
			t.Fatalf("%s: compose-budget fault armed but never fired", top.Name)
		}
		if e.Stats().FastRuns != 0 {
			t.Fatalf("%s: fast path claimed a run it could not compose", top.Name)
		}
	}
}

// TestHierCircuitDeclineRecorded pins that a decline while a fast-path
// verdict materializes its circuit is a decline like any other: the
// error is the structured record, the fallback counter moves, and the
// trace carries the decline event.
func TestHierCircuitDeclineRecorded(t *testing.T) {
	e := New()
	e.Log = obs.Discard
	res, ok := e.Verify(srArray(t, 16, 16, geom.R0))
	if !ok || e.Stats().FastRuns != 1 {
		t.Fatalf("16x16 array not served by the fast path: ok=%v stats=%+v", ok, e.Stats())
	}
	e.Faults = faultinject.New()
	e.Faults.Enable(faultinject.ComposeBudget, "")
	tr := obs.NewTrace()
	e.Trace = tr
	_, err := res.Circuit()
	if d, isDecline := err.(*Decline); !isDecline || d.Cond != CondComposeBudget {
		t.Fatalf("Circuit error = %v, want a %s decline", err, CondComposeBudget)
	}
	if got := e.Stats().Fallbacks; got != 1 {
		t.Errorf("fallbacks = %d, want 1", got)
	}
	if d := e.LastDeclineInfo(); d == nil || d.Cond != CondComposeBudget {
		t.Errorf("LastDeclineInfo = %+v, want condition %s", d, CondComposeBudget)
	}
	events := 0
	for _, ev := range tr.RootEvents() {
		if ev.Kind == obs.EventDecline {
			events++
		}
	}
	if events != 1 {
		t.Errorf("trace holds %d decline event(s), want 1", events)
	}
}
