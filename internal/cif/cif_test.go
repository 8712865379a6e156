package cif

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"riot/internal/geom"
)

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := ParseString(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f
}

func TestParseBox(t *testing.T) {
	f := mustParse(t, "DS 1; L NM; B 20 10 5 5; DF; E")
	s := f.SymbolByID(1)
	if s == nil {
		t.Fatal("symbol 1 missing")
	}
	if len(s.Elements) != 1 {
		t.Fatalf("elements = %d", len(s.Elements))
	}
	b, ok := s.Elements[0].(Box)
	if !ok {
		t.Fatalf("element is %T", s.Elements[0])
	}
	if b.Layer != geom.NM || b.Length != 20 || b.Width != 10 || b.Center != geom.Pt(5, 5) {
		t.Errorf("box = %+v", b)
	}
	if b.Rect() != geom.R(-5, 0, 15, 10) {
		t.Errorf("Rect = %v", b.Rect())
	}
}

func TestParseBoxVerticalDirection(t *testing.T) {
	f := mustParse(t, "DS 1; L NP; B 20 10 0 0 0 1; DF; E")
	b := f.SymbolByID(1).Elements[0].(Box)
	// direction (0,1): length runs vertically
	if b.Rect() != geom.R(-5, -10, 5, 10) {
		t.Errorf("Rect = %v", b.Rect())
	}
}

func TestParseWirePolygonFlash(t *testing.T) {
	f := mustParse(t, `
DS 2;
L ND; P 0 0 10 0 10 10;
L NM; W 4 0 0 0 20 15 20;
L NC; R 6 3 3;
DF; E`)
	s := f.SymbolByID(2)
	if len(s.Elements) != 3 {
		t.Fatalf("elements = %d", len(s.Elements))
	}
	poly := s.Elements[0].(Polygon)
	if poly.Layer != geom.ND || len(poly.Points) != 3 {
		t.Errorf("polygon = %+v", poly)
	}
	wire := s.Elements[1].(Wire)
	if wire.Width != 4 || len(wire.Points) != 3 || wire.Points[2] != geom.Pt(15, 20) {
		t.Errorf("wire = %+v", wire)
	}
	rf := s.Elements[2].(RoundFlash)
	if rf.Diameter != 6 || rf.Center != geom.Pt(3, 3) {
		t.Errorf("flash = %+v", rf)
	}
}

func TestParseNegativeAndSeparators(t *testing.T) {
	// CIF allows weird separators; commas, letters and newlines between
	// integers are all blanks.
	f := mustParse(t, "DS 1; L NM; B 4, 4 xy: -10 - 20; DF; E")
	b := f.SymbolByID(1).Elements[0].(Box)
	if b.Center != geom.Pt(-10, -20) {
		t.Errorf("center = %v", b.Center)
	}
}

func TestParseComments(t *testing.T) {
	f := mustParse(t, "(file header (nested));DS 1; L NM; (mid) B 2 2 0 0; DF; E")
	if len(f.SymbolByID(1).Elements) != 1 {
		t.Error("comment disturbed parsing")
	}
}

func TestParseCallTransforms(t *testing.T) {
	cases := []struct {
		src  string
		want geom.Transform
	}{
		{"C 1;", geom.Identity},
		{"C 1 T 10 20;", geom.MakeTransform(geom.R0, geom.Pt(10, 20))},
		{"C 1 M X;", geom.MakeTransform(geom.MX, geom.Pt(0, 0))},
		{"C 1 M Y;", geom.MakeTransform(geom.MXR180, geom.Pt(0, 0))},
		{"C 1 R 0 1;", geom.MakeTransform(geom.R90, geom.Pt(0, 0))},
		{"C 1 R 0 -5;", geom.MakeTransform(geom.R270, geom.Pt(0, 0))},
		// order matters: translate then rotate vs rotate then translate
		{"C 1 T 10 0 R 0 1;", geom.MakeTransform(geom.R90, geom.Pt(0, 10))},
		{"C 1 R 0 1 T 10 0;", geom.MakeTransform(geom.R90, geom.Pt(10, 0))},
	}
	for _, c := range cases {
		f := mustParse(t, "DS 1; L NM; B 2 2 0 0; DF; DS 2; "+c.src+" DF; E")
		call := f.SymbolByID(2).Elements[0].(Call)
		if call.Transform != c.want {
			t.Errorf("%s => %v, want %v", c.src, call.Transform, c.want)
		}
	}
}

func TestParseRejectsNonManhattanRotation(t *testing.T) {
	if _, err := ParseString("DS 2; C 1 R 1 1; DF; E"); err == nil {
		t.Error("accepted 45-degree rotation")
	}
}

func TestParseSymbolName(t *testing.T) {
	f := mustParse(t, "DS 5; 9 INVPAD; L NM; B 2 2 0 0; DF; E")
	if got := f.SymbolByID(5).Name; got != "INVPAD" {
		t.Errorf("name = %q", got)
	}
	if f.SymbolByName("INVPAD") == nil {
		t.Error("SymbolByName failed")
	}
	if f.SymbolByName("NOPE") != nil {
		t.Error("SymbolByName found ghost")
	}
}

func TestParseConnectorExtension(t *testing.T) {
	f := mustParse(t, "DS 1; L NM; B 8 8 4 4; 94 VDD 0 4 NM 4; 94 OUT 8 4 NP 2; 94 LBL 4 8; DF; E")
	cs := f.SymbolByID(1).Connectors()
	if len(cs) != 3 {
		t.Fatalf("connectors = %d", len(cs))
	}
	if cs[0] != (Connector{Name: "VDD", At: geom.Pt(0, 4), Layer: geom.NM, Width: 4}) {
		t.Errorf("VDD = %+v", cs[0])
	}
	if cs[1].Layer != geom.NP || cs[1].Width != 2 {
		t.Errorf("OUT = %+v", cs[1])
	}
	// label-form extension defaults to metal, width 0
	if cs[2].Layer != geom.NM || cs[2].Width != 0 {
		t.Errorf("LBL = %+v", cs[2])
	}
}

func TestParseConnectorErrors(t *testing.T) {
	for _, src := range []string{
		"DS 1; 94 X; DF; E",             // too few fields
		"DS 1; 94 X 1 z; DF; E",         // bad y
		"DS 1; 94 X 1 2 TOOLONG; DF; E", // bad layer
		"DS 1; 94 X 1 2 NM -3; DF; E",   // bad width
	} {
		if _, err := ParseString(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseUserExtension(t *testing.T) {
	f := mustParse(t, "DS 1; 42 anything at all here; DF; E")
	e := f.SymbolByID(1).Elements[0].(UserExt)
	if e.Digit != 42 || e.Text != "anything at all here" {
		t.Errorf("ext = %+v", e)
	}
}

func TestParseScaledSymbol(t *testing.T) {
	// DS with a/b = 25/1: lambda units scaled to centimicrons... here 2x/1.
	f := mustParse(t, "DS 1 2 1; L NM; B 4 4 10 10; W 2 0 0 0 8; 94 P 10 12 NM 2; DF; E")
	s := f.SymbolByID(1)
	els := s.ResolveScale()
	b := els[0].(Box)
	if b.Length != 8 || b.Center != geom.Pt(20, 20) {
		t.Errorf("scaled box = %+v", b)
	}
	w := els[1].(Wire)
	if w.Width != 4 || w.Points[1] != geom.Pt(0, 16) {
		t.Errorf("scaled wire = %+v", w)
	}
	c := els[2].(Connector)
	if c.At != geom.Pt(20, 24) || c.Width != 4 {
		t.Errorf("scaled connector = %+v", c)
	}
	// Elements themselves are unmodified.
	if s.Elements[0].(Box).Length != 4 {
		t.Error("ResolveScale mutated the symbol")
	}
}

func TestParseDD(t *testing.T) {
	f := mustParse(t, "DS 1; L NM; B 2 2 0 0; DF; DS 5; L NM; B 2 2 0 0; DF; DD 5; E")
	if f.SymbolByID(5) != nil {
		t.Error("DD 5 did not delete symbol 5")
	}
	if f.SymbolByID(1) == nil {
		t.Error("DD 5 deleted symbol 1")
	}
}

func TestParseStructuralErrors(t *testing.T) {
	cases := []string{
		"DS 1; L NM; B 2 2 0 0; DF",              // missing E
		"DS 1; DS 2; DF; DF; E",                  // nested DS
		"DF; E",                                  // DF without DS
		"DS 1; E",                                // E inside symbol
		"DS 1; L NM; B 2 2 0; DF; E",             // short box
		"DS 1; B 2 2 0 0; DF; E",                 // geometry before L
		"DS 1; L NM; B 2 2 0 0 1 1; DF; E",       // diagonal box
		"DS 1; L NM; Q; DF; E",                   // unknown command
		"DS 1; L NM; B 2 2 0 0; DF; DS 1; DF; E", // redefinition
		"(unterminated comment",
		"DS 1 1 0; DF; E", // zero denominator
	}
	for _, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseLowercase(t *testing.T) {
	f := mustParse(t, "ds 1; l nm; b 4 4 2 2; df; e")
	if f.SymbolByID(1) == nil {
		t.Fatal("lowercase commands rejected")
	}
	if f.SymbolByID(1).Elements[0].(Box).Layer != geom.NM {
		t.Error("lowercase layer not upper-cased")
	}
}

func TestSymbolBBox(t *testing.T) {
	f := mustParse(t, `
DS 1; L NM; B 10 10 5 5; DF;
DS 2; C 1 T 100 0; C 1 R 0 1 T -10 0; DF;
E`)
	r, err := f.SymbolBBox(1)
	if err != nil || r != geom.R(0, 0, 10, 10) {
		t.Errorf("bbox(1) = %v, %v", r, err)
	}
	r, err = f.SymbolBBox(2)
	if err != nil {
		t.Fatal(err)
	}
	// call 1: (100..110, 0..10); call 2: rotate90 of (0,0,10,10) = (-10,0,0,10) then T-10: (-20..-10, 0..10)
	if r != geom.R(-20, 0, 110, 10) {
		t.Errorf("bbox(2) = %v", r)
	}
}

func TestSymbolBBoxErrors(t *testing.T) {
	f := mustParse(t, "DS 1; C 2; DF; DS 2; C 1; DF; E")
	if _, err := f.SymbolBBox(1); err == nil {
		t.Error("recursive bbox accepted")
	}
	f2 := mustParse(t, "DS 1; C 99; DF; E")
	if _, err := f2.SymbolBBox(1); err == nil {
		t.Error("undefined call accepted")
	}
	if _, err := f2.SymbolBBox(42); err == nil {
		t.Error("bbox of undefined symbol accepted")
	}
}

func TestWireBBoxIncludesWidth(t *testing.T) {
	f := mustParse(t, "DS 1; L NM; W 4 0 0 10 0; DF; E")
	r, err := f.SymbolBBox(1)
	if err != nil {
		t.Fatal(err)
	}
	if r != geom.R(-2, -2, 12, 2) {
		t.Errorf("wire bbox = %v", r)
	}
}

func TestWriteRoundTrip(t *testing.T) {
	src := `
DS 1; 9 GATE;
L NM; B 20 10 5 5;
L NP; W 2 0 0 0 10 8 10;
P 0 0 4 0 4 4;
L NC; R 4 2 2;
94 IN 0 5 NP 2;
94 OUT 20 5 NM 4;
42 custom data;
DF;
DS 2; 9 TOP;
C 1 T 100 50;
C 1 M X R 0 1 T -3 -4;
DF;
E`
	f1 := mustParse(t, src)
	text := String(f1)
	f2, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Errorf("round trip mismatch:\nfirst:  %#v\nsecond: %#v\ntext:\n%s", f1, f2, text)
	}
}

func TestWriteRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layers := []geom.Layer{geom.NM, geom.NP, geom.ND, geom.NC}
	for trial := 0; trial < 50; trial++ {
		f := &File{}
		nsym := 1 + rng.Intn(4)
		for i := 0; i < nsym; i++ {
			s := &Symbol{ID: i + 1, A: 1, B: 1}
			nel := 1 + rng.Intn(6)
			for j := 0; j < nel; j++ {
				l := layers[rng.Intn(len(layers))]
				switch rng.Intn(5) {
				case 0:
					s.Elements = append(s.Elements, Box{Layer: l, Length: 1 + rng.Intn(40), Width: 1 + rng.Intn(40), Center: geom.Pt(rng.Intn(200)-100, rng.Intn(200)-100), Direction: geom.Pt(1, 0)})
				case 1:
					pts := make([]geom.Point, 3+rng.Intn(3))
					for k := range pts {
						pts[k] = geom.Pt(rng.Intn(100), rng.Intn(100))
					}
					s.Elements = append(s.Elements, Polygon{Layer: l, Points: pts})
				case 2:
					pts := make([]geom.Point, 2+rng.Intn(3))
					for k := range pts {
						pts[k] = geom.Pt(rng.Intn(100), rng.Intn(100))
					}
					s.Elements = append(s.Elements, Wire{Layer: l, Width: 1 + rng.Intn(8), Points: pts})
				case 3:
					s.Elements = append(s.Elements, Connector{Name: "P" + string(rune('A'+j)), At: geom.Pt(rng.Intn(100), rng.Intn(100)), Layer: geom.NM, Width: rng.Intn(6)})
				case 4:
					if i > 0 {
						s.Elements = append(s.Elements, Call{SymbolID: 1 + rng.Intn(i), Transform: geom.MakeTransform(geom.Orient(rng.Intn(8)), geom.Pt(rng.Intn(100)-50, rng.Intn(100)-50))})
					} else {
						s.Elements = append(s.Elements, UserExt{Digit: 50, Text: "x"})
					}
				}
			}
			f.Symbols = append(f.Symbols, s)
		}
		text := String(f)
		f2, err := ParseString(text)
		if err != nil {
			t.Fatalf("trial %d: reparse: %v\n%s", trial, err, text)
		}
		if !reflect.DeepEqual(f, f2) {
			t.Fatalf("trial %d: round trip mismatch\n%s", trial, text)
		}
	}
}

func TestWriteTopLevel(t *testing.T) {
	f := &File{
		Symbols:  []*Symbol{{ID: 1, A: 1, B: 1, Elements: []Element{Box{Layer: geom.NM, Length: 2, Width: 2, Center: geom.Pt(1, 1), Direction: geom.Pt(1, 0)}}}},
		TopLevel: []Element{Call{SymbolID: 1, Transform: geom.Translate(geom.Pt(5, 5))}},
	}
	text := String(f)
	if !strings.Contains(text, "C 1 T 5 5;") {
		t.Errorf("missing top-level call:\n%s", text)
	}
	f2, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.TopLevel) != 1 {
		t.Errorf("top level lost: %+v", f2.TopLevel)
	}
}

// TestWriteElements pins the writer's text for every element kind: a
// box with and without a direction, polygon, wire, round flash, a call
// in all eight orientations and with a zero translation, a connector
// with no layer, user extensions with and without text, and DS with a
// scale.
func TestWriteElements(t *testing.T) {
	var calls []Element
	for o := geom.R0; o <= geom.MXR270; o++ {
		calls = append(calls, Call{SymbolID: 1, Transform: geom.MakeTransform(o, geom.Pt(-3, 4))})
	}
	calls = append(calls,
		Call{SymbolID: 1, Transform: geom.Identity},
		Call{SymbolID: 1, Transform: geom.MakeTransform(geom.R90, geom.Point{})})
	f := &File{
		Symbols: []*Symbol{
			{ID: 1, A: 2, B: 3, Name: "LEAF", Elements: []Element{
				Box{Layer: geom.NM, Length: 4, Width: 2, Center: geom.Pt(1, -1)},
				Box{Layer: geom.NM, Length: 4, Width: 2, Center: geom.Pt(1, -1), Direction: geom.Pt(0, 1)},
				Polygon{Layer: geom.NP, Points: []geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}}},
				Wire{Layer: geom.NP, Width: 2, Points: []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}},
				RoundFlash{Layer: geom.ND, Diameter: 6, Center: geom.Pt(3, 3)},
				Connector{Name: "X", At: geom.Pt(1, 2)},
				Connector{Name: "Y", At: geom.Pt(3, -4), Layer: geom.NM, Width: 2},
				UserExt{Digit: 5},
				UserExt{Digit: 7, Text: "hello world"},
			}},
			{ID: 2, Elements: calls},
		},
	}
	want := `(CIF 2.0 written by riot);
DS 1 2 3;
9 LEAF;
L NM;
B 4 2 1 -1;
B 4 2 1 -1 0 1;
L NP;
P 0 0 4 0 4 4;
W 2 0 0 10 0;
L ND;
R 6 3 3;
94 X 1 2 (none) 0;
94 Y 3 -4 NM 2;
5;
7 hello world;
DF;
DS 2;
C 1 T -3 4;
C 1 R 0 1 T -3 4;
C 1 R -1 0 T -3 4;
C 1 R 0 -1 T -3 4;
C 1 M X T -3 4;
C 1 M X R 0 1 T -3 4;
C 1 M X R -1 0 T -3 4;
C 1 M X R 0 -1 T -3 4;
C 1 T 0 0;
C 1 R 0 1;
DF;
E
`
	var b strings.Builder
	n, err := f.WriteTo(&b)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want || n != int64(len(want)) {
		t.Errorf("wrote %d bytes:\n%s\nwant %d bytes:\n%s", n, got, len(want), want)
	}
}
