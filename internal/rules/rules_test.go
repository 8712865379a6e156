package rules

import (
	"testing"

	"riot/internal/geom"
)

func TestKnownLayerRules(t *testing.T) {
	cases := []struct {
		layer geom.Layer
		w, s  int
	}{
		{geom.NM, 3, 3},
		{geom.NP, 2, 2},
		{geom.ND, 2, 3},
		{geom.NC, 2, 2},
	}
	for _, c := range cases {
		if MinWidth(c.layer) != c.w || MinSpacing(c.layer) != c.s {
			t.Errorf("%v: %d/%d, want %d/%d", c.layer, MinWidth(c.layer), MinSpacing(c.layer), c.w, c.s)
		}
		if Pitch(c.layer) != c.w+c.s {
			t.Errorf("%v pitch = %d", c.layer, Pitch(c.layer))
		}
	}
}

func TestUnknownLayerConservative(t *testing.T) {
	r := Of(geom.Layer("XX"))
	if r.MinWidth < 3 || r.MinSpacing < 3 {
		t.Errorf("unknown layer rule too permissive: %+v", r)
	}
}

func TestWirePitch(t *testing.T) {
	// two minimum metal wires: (3+3)/2 rounded up + 3 spacing
	if got := WirePitch(geom.NM, 0, 0); got != 6 {
		t.Errorf("min metal pitch = %d", got)
	}
	// a wide and a narrow wire need more separation
	if got := WirePitch(geom.NM, 6, 4); got != (6+4+1)/2+3 {
		t.Errorf("mixed pitch = %d", got)
	}
	if WirePitch(geom.NM, 8, 8) <= WirePitch(geom.NM, 0, 0) {
		t.Error("wider wires should pitch farther apart")
	}
}

func TestConstants(t *testing.T) {
	if Lambda != 250 {
		t.Errorf("lambda = %d centimicrons (Mead & Conway is 2.5 um)", Lambda)
	}
	if ContactSize < TransistorChannelLength {
		t.Error("contact smaller than a channel?")
	}
}

// TestOfEdgeCases pins the rule table's fallback behavior: every known
// layer has positive width and spacing, the zero layer and arbitrary
// foreign CIF layer names fall back to the conservative metal-like
// rule, and the fallback is identical however it is reached.
func TestOfEdgeCases(t *testing.T) {
	for _, l := range geom.KnownLayers {
		r := Of(l)
		if r.MinWidth <= 0 || r.MinSpacing <= 0 {
			t.Errorf("%v: non-positive rule %+v", l, r)
		}
	}
	fallback := Of(geom.Layer("XX"))
	for _, l := range []geom.Layer{geom.LayerNone, "Q", "ZZZZ", "nd"} {
		if Of(l) != fallback {
			t.Errorf("unknown layer %q rule %+v differs from fallback %+v", l, Of(l), fallback)
		}
	}
	if MinWidth("XX") != fallback.MinWidth || MinSpacing("XX") != fallback.MinSpacing {
		t.Error("MinWidth/MinSpacing disagree with Of on unknown layers")
	}
	if Pitch("XX") != fallback.MinWidth+fallback.MinSpacing {
		t.Errorf("unknown-layer pitch = %d", Pitch("XX"))
	}
}

// TestWirePitchEdgeCases: zero and negative widths take the layer
// minimum, one-sided zero widths substitute only that side, and the
// function works on unknown layers through the fallback rule.
func TestWirePitchEdgeCases(t *testing.T) {
	// both zero: minimum wires
	if got, want := WirePitch(geom.NP, 0, 0), (2+2+1)/2+2; got != want {
		t.Errorf("zero-width poly pitch = %d, want %d", got, want)
	}
	// negative counts as unset, same as zero
	if WirePitch(geom.NP, -3, -1) != WirePitch(geom.NP, 0, 0) {
		t.Error("negative widths should substitute the layer minimum")
	}
	// one side set: only the other substitutes
	if got, want := WirePitch(geom.NM, 0, 7), (3+7+1)/2+3; got != want {
		t.Errorf("one-sided pitch = %d, want %d", got, want)
	}
	// symmetry: the pitch cannot depend on argument order
	if WirePitch(geom.NM, 4, 8) != WirePitch(geom.NM, 8, 4) {
		t.Error("WirePitch is not symmetric")
	}
	// unknown layer: the conservative fallback rule applies
	fb := Of(geom.Layer("XX"))
	if got, want := WirePitch("XX", 0, 0), (2*fb.MinWidth+1)/2+fb.MinSpacing; got != want {
		t.Errorf("unknown-layer pitch = %d, want %d", got, want)
	}
	// a pitch always clears the two half-widths plus the gap
	for _, w := range []int{1, 2, 5, 9} {
		if got := WirePitch(geom.ND, w, w); got < w+MinSpacing(geom.ND) {
			t.Errorf("width %d: pitch %d leaves wires closer than the rule", w, got)
		}
	}
}
