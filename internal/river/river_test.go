package river

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"riot/internal/geom"
	"riot/internal/rules"
	"riot/internal/sticks"
)

func term(name string, x int, l geom.Layer, w int) Terminal {
	return Terminal{Name: name, X: x, Layer: l, Width: w}
}

func metalRow(xs ...int) []Terminal {
	ts := make([]Terminal, len(xs))
	for i, x := range xs {
		ts[i] = term("", x, geom.NM, 0)
	}
	return ts
}

func TestRouteStraight(t *testing.T) {
	res, err := Route(metalRow(0, 10, 20), metalRow(0, 10, 20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tracks != 0 {
		t.Errorf("straight route used %d tracks", res.Tracks)
	}
	if res.Channels != 1 {
		t.Errorf("channels = %d", res.Channels)
	}
	for _, w := range res.Cell.Wires {
		if len(w.Points) != 2 {
			t.Errorf("straight wire has %d points", len(w.Points))
		}
	}
	if res.Length != 3*res.Height {
		t.Errorf("length = %d, want %d", res.Length, 3*res.Height)
	}
}

func TestRouteRightShift(t *testing.T) {
	res, err := Route(metalRow(0, 10, 20), metalRow(5, 15, 25), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tracks == 0 {
		t.Error("shifted route needs jogs")
	}
	// every wire starts at its bottom terminal and ends at its top one
	for i, w := range res.Cell.Wires {
		first, last := w.Points[0], w.Points[len(w.Points)-1]
		if first.Y != 0 || last.Y != res.Height {
			t.Errorf("wire %d does not span channel: %v", i, w.Points)
		}
		if first.X != []int{0, 10, 20}[i] || last.X != []int{5, 15, 25}[i] {
			t.Errorf("wire %d endpoints %v, %v", i, first, last)
		}
	}
	if err := res.Cell.Validate(); err != nil {
		t.Errorf("route cell invalid: %v", err)
	}
}

func TestRouteConnectorsMatchTerminals(t *testing.T) {
	b := []Terminal{term("A", 0, geom.NM, 4), term("B", 12, geom.NP, 2)}
	tp := []Terminal{term("X", 6, geom.NM, 4), term("Y", 20, geom.NP, 2)}
	res, err := Route(b, tp, Options{CellName: "R1"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cell.Name != "R1" {
		t.Errorf("cell name = %q", res.Cell.Name)
	}
	ab, ok := res.Cell.ConnectorByName("A.b")
	if !ok || ab.At != geom.Pt(0, 0) || ab.Layer != geom.NM || ab.Width != 4 || ab.Side != geom.SideBottom {
		t.Errorf("A.b = %+v ok=%v", ab, ok)
	}
	yt, ok := res.Cell.ConnectorByName("Y.t")
	if !ok || yt.At != geom.Pt(20, res.Height) || yt.Side != geom.SideTop {
		t.Errorf("Y.t = %+v ok=%v", yt, ok)
	}
}

func TestRouteErrors(t *testing.T) {
	if _, err := Route(metalRow(0), metalRow(0, 5), Options{}); err == nil {
		t.Error("accepted mismatched terminal counts")
	}
	if _, err := Route(nil, nil, Options{}); err == nil {
		t.Error("accepted empty route")
	}
	if _, err := Route([]Terminal{term("A", 0, geom.NM, 0)}, []Terminal{term("A", 0, geom.NP, 0)}, Options{}); err == nil {
		t.Error("accepted layer change")
	}
	if _, err := Route([]Terminal{term("A", 0, geom.NC, 0)}, []Terminal{term("A", 0, geom.NC, 0)}, Options{}); err == nil {
		t.Error("accepted contact-layer route")
	}
	// crossing: same layer, order reversed
	if _, err := Route(metalRow(0, 10), metalRow(10, 0), Options{}); err == nil {
		t.Error("accepted crossing same-layer routes")
	}
	// duplicate bottom position
	if _, err := Route(metalRow(5, 5), metalRow(0, 10), Options{}); err == nil {
		t.Error("accepted duplicate bottom positions")
	}
}

func TestRouteCrossingDifferentLayersAllowed(t *testing.T) {
	b := []Terminal{term("A", 0, geom.NM, 0), term("B", 10, geom.NP, 0)}
	tp := []Terminal{term("A", 10, geom.NM, 0), term("B", 0, geom.NP, 0)}
	res, err := Route(b, tp, Options{})
	if err != nil {
		t.Fatalf("different-layer crossing rejected: %v", err)
	}
	if len(res.Cell.Wires) != 2 {
		t.Errorf("wires = %d", len(res.Cell.Wires))
	}
}

func TestRouteLeftAndRightMovers(t *testing.T) {
	// two rights then two lefts, interval-disjoint under order
	// preservation
	b := metalRow(0, 10, 40, 50)
	tp := metalRow(6, 16, 44, 52)
	tp[2].X = 34 // third net moves left
	tp[3].X = 46 // fourth net moves left
	res, err := Route(b, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cell.Validate(); err != nil {
		t.Errorf("cell invalid: %v", err)
	}
}

func TestRouteMultiChannel(t *testing.T) {
	// many overlapping same-layer shifts force many tracks; a small
	// channel capacity then forces several channels
	n := 9
	var b, tp []Terminal
	for i := 0; i < n; i++ {
		b = append(b, term("", i*8, geom.NM, 0))
		tp = append(tp, term("", i*8+4, geom.NM, 0))
	}
	small, err := Route(b, tp, Options{TracksPerChannel: 2})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Route(b, tp, Options{TracksPerChannel: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if small.Tracks != big.Tracks {
		t.Errorf("track count depends on capacity: %d vs %d", small.Tracks, big.Tracks)
	}
	if small.Channels <= big.Channels {
		t.Errorf("small capacity gave %d channels, huge capacity %d", small.Channels, big.Channels)
	}
	if big.Channels != 1 {
		t.Errorf("unlimited capacity used %d channels", big.Channels)
	}
}

func TestRouteWidthsFollowConnectors(t *testing.T) {
	b := []Terminal{term("P", 0, geom.NM, 6)}
	tp := []Terminal{term("P", 20, geom.NM, 4)}
	res, err := Route(b, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// route wire takes the wider of the two ends
	if res.Cell.Wires[0].Width != 6 {
		t.Errorf("wire width = %d, want 6", res.Cell.Wires[0].Width)
	}
}

func TestRouteHeightGrowsWithTracks(t *testing.T) {
	straight, err := Route(metalRow(0, 10), metalRow(0, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	jogged, err := Route(metalRow(0, 10), metalRow(4, 14), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if jogged.Height <= straight.Height {
		t.Errorf("jogged height %d <= straight height %d", jogged.Height, straight.Height)
	}
}

func TestEffWidthDefault(t *testing.T) {
	tm := term("", 0, geom.NM, 0)
	if tm.EffWidth() != rules.MinWidth(geom.NM) {
		t.Errorf("EffWidth = %d", tm.EffWidth())
	}
}

// Property: random order-preserving terminal vectors always route, the
// route cell validates, the spacing verifier passes (it runs inside
// Route), and every wire lands on its terminals.
func TestRouteRandomPlanar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	layers := []geom.Layer{geom.NM, geom.NP, geom.ND}
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(8)
		var b, tp []Terminal
		xb, xt := 0, 0
		for i := 0; i < n; i++ {
			l := layers[rng.Intn(3)]
			xb += rules.Pitch(geom.NM) + rng.Intn(10)
			xt += rules.Pitch(geom.NM) + rng.Intn(10)
			b = append(b, term("", xb, l, 0))
			tp = append(tp, term("", xt, l, 0))
		}
		res, err := Route(b, tp, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, w := range res.Cell.Wires {
			if w.Points[0].X != b[i].X || w.Points[len(w.Points)-1].X != tp[i].X {
				t.Fatalf("trial %d wire %d misrouted", trial, i)
			}
		}
	}
}

// Property: wire length is at least the Manhattan lower bound
// (|dx| + channel height per net) and total length is reported
// accurately.
func TestRouteLengthAccounting(t *testing.T) {
	b := metalRow(0, 20)
	tp := metalRow(8, 36)
	res, err := Route(b, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, w := range res.Cell.Wires {
		for i := 1; i < len(w.Points); i++ {
			want += w.Points[i-1].ManhattanDist(w.Points[i])
		}
	}
	if res.Length != want {
		t.Errorf("Length = %d, want %d", res.Length, want)
	}
	lower := (8 - 0) + (36 - 20) + 2*res.Height
	if res.Length < lower {
		t.Errorf("Length %d below Manhattan bound %d", res.Length, lower)
	}
}

func TestRouteCellConvertsToCIF(t *testing.T) {
	res, err := Route(metalRow(0, 10, 20), metalRow(4, 14, 30), Options{CellName: "RC"})
	if err != nil {
		t.Fatal(err)
	}
	sym, err := sticks.ToCIF(res.Cell, 3)
	if err != nil {
		t.Fatalf("route cell does not convert to CIF: %v", err)
	}
	if len(sym.Connectors()) != 6 {
		t.Errorf("CIF connectors = %d, want 6", len(sym.Connectors()))
	}
}

// TestTerminalCongestionPrecheck: same-edge terminals whose wire stubs
// crowd under the spacing rule fail up front with a user-level error
// naming the terminals, before any track assignment.
func TestTerminalCongestionPrecheck(t *testing.T) {
	// metal stubs 3 wide at 4 apart: edge gap 1 < the 3-lambda rule
	_, err := Route(
		[]Terminal{term("A", 0, geom.NM, 0), term("B", 4, geom.NM, 0)},
		[]Terminal{term("A", 0, geom.NM, 0), term("B", 4, geom.NM, 0)},
		Options{})
	if err == nil {
		t.Fatal("crowded terminals routed")
	}
	// at the rule exactly (3 wide + 3 gap = 6 pitch): legal
	if _, err := Route(metalRow(0, 6, 12), metalRow(0, 6, 12), Options{}); err != nil {
		t.Fatalf("rule-pitch terminals rejected: %v", err)
	}
	// different layers at the same positions do not interact
	_, err = Route(
		[]Terminal{term("A", 0, geom.NM, 0), term("B", 4, geom.NP, 0)},
		[]Terminal{term("A", 0, geom.NM, 0), term("B", 4, geom.NP, 0)},
		Options{})
	if err != nil {
		t.Fatalf("cross-layer terminals rejected: %v", err)
	}
	// the stub takes the net's resolved width: a wide far-end terminal
	// crowds this edge even though the near ends alone are legal
	_, err = Route(
		[]Terminal{term("A", 0, geom.NM, 0), term("B", 8, geom.NM, 0)},
		[]Terminal{term("A", 0, geom.NM, 9), term("B", 8, geom.NM, 3)},
		Options{})
	if err == nil {
		t.Fatal("wide far-end terminals routed through a crowded edge")
	}
	if !strings.Contains(err.Error(), "terminals") {
		t.Errorf("crowding reported as %v, want a terminal-naming error", err)
	}
}

// TestExactHeightOverflowFails pins the fixed-gap overflow contract:
// when the jogged route's natural height (its track stack, however
// many channels the unconstrained router would use) exceeds a forced
// ExactHeight, routing must fail with a diagnostic naming required vs
// available tracks — never emit a cell taller than the gap.
func TestExactHeightOverflowFails(t *testing.T) {
	// every net jogs left by 100, so the jog intervals all overlap and
	// each needs its own track: with TracksPerChannel 2 this is a
	// multi-channel route (5 tracks, 3 channels) whose natural stack
	// cannot fit a small fixed gap
	var bottom, top []Terminal
	for i := 0; i < 5; i++ {
		bottom = append(bottom, term("", 100+i*8, geom.NM, 0))
		top = append(top, term("", i*8, geom.NM, 0))
	}
	nat, err := Route(bottom, top, Options{TracksPerChannel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if nat.Tracks != 5 || nat.Channels != 3 {
		t.Fatalf("natural route = %d tracks, %d channels; want 5, 3", nat.Tracks, nat.Channels)
	}

	forced := nat.Height / 2
	res, err := Route(bottom, top, Options{TracksPerChannel: 2, ExactHeight: forced})
	if err == nil {
		t.Fatalf("overflowing fixed-height route succeeded with height %d (> forced %d)", res.Height, forced)
	}
	msg := err.Error()
	if !strings.Contains(msg, "5 jog track(s)") || !strings.Contains(msg, "track") {
		t.Errorf("diagnostic does not name required tracks: %q", msg)
	}

	// the natural height itself must still be accepted exactly
	fit, err := Route(bottom, top, Options{TracksPerChannel: 2, ExactHeight: nat.Height})
	if err != nil {
		t.Fatalf("exact-fit fixed height rejected: %v", err)
	}
	if fit.Height != nat.Height {
		t.Errorf("exact-fit height = %d, want %d", fit.Height, nat.Height)
	}
}

// TestExactHeightNegativeRejected: a negative forced gap (overlapping
// instances) must fail outright, not silently route unconstrained.
func TestExactHeightNegativeRejected(t *testing.T) {
	res, err := Route(metalRow(0, 10), metalRow(0, 10), Options{ExactHeight: -4})
	if err == nil {
		t.Fatalf("negative forced height routed a %d-lambda-tall cell", res.Height)
	}
}

// TestRouteMixedLayersDeterministic: the layers of one route share the
// track numbering, so routing the same mixed-layer connections again
// must build the same cell.
func TestRouteMixedLayersDeterministic(t *testing.T) {
	bottom := []Terminal{term("a", 0, geom.NM, 0), term("b", 10, geom.NP, 0), term("c", 20, geom.NM, 0)}
	top := []Terminal{term("a", 30, geom.NM, 0), term("b", 40, geom.NP, 0), term("c", 50, geom.NM, 0)}
	first, err := Route(bottom, top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if res, err := Route(bottom, top, Options{}); err != nil || !reflect.DeepEqual(res, first) {
			t.Fatalf("route %d differs from the first (%v)", i, err)
		}
	}
}
