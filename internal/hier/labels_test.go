package hier

import (
	"fmt"
	"reflect"
	"testing"

	"riot/internal/cif"
	"riot/internal/core"
	"riot/internal/extract"
	"riot/internal/geom"
	"riot/internal/obs"
	"riot/internal/rules"
)

// cifLeaf adds a CIF leaf PADX to the design: a metal plate with a
// small poly square in its middle and four connectors — P inside on
// its own metal, W on the box's left edge on its own metal, OFF on the
// box's right edge but off all material, UP on the box's top edge on
// poly where the cell has none. With noLayer it also carries Z, a
// connector with no layer sitting on the poly (the CIF reader always
// assigns a layer, so Z is added directly).
func cifLeaf(t testing.TB, d *core.Design, noLayer bool) *core.Cell {
	t.Helper()
	f, err := cif.ParseString("DS 1; 9 PADX; L NM; B 400 200 0 0; L NP; B 100 100 0 0; " +
		"94 P 0 0 NM; 94 W -200 0 NM; 94 OFF 300 0 NM; 94 UP 0 100 NP; DF; E")
	if err != nil {
		t.Fatal(err)
	}
	sym := f.SymbolByID(1)
	if noLayer {
		sym.Elements = append(sym.Elements, cif.Connector{Name: "Z", At: geom.Pt(0, 20)})
	}
	leaf, err := core.NewLeafFromCIF(f, sym)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddCell(leaf); err != nil {
		t.Fatal(err)
	}
	return leaf
}

// place appends a 1x1 instance of the named cell.
func place(t testing.TB, d *core.Design, top *core.Cell, cell, name string, tr geom.Transform) *core.Instance {
	t.Helper()
	c, ok := d.Cell(cell)
	if !ok {
		t.Fatalf("no cell %s", cell)
	}
	in := core.NewInstance(name, c, tr)
	top.Instances = append(top.Instances, in)
	return in
}

// labelCase is one design the label differential materializes.
// context marks the ones where some label must take the spatial query:
// an off-material or unlayered connector, a composition instance, or
// the top's own extra connectors. has and lacks name labels the flat
// extractor must resolve or leave out, so the case really reaches the
// edge it is named for.
type labelCase struct {
	name       string
	top        *core.Cell
	context    bool
	has, lacks []string
}

// labelCases builds the label differential's designs.
func labelCases(t *testing.T) []labelCase {
	type tc = labelCase
	var cases []tc
	at := func(o geom.Orient, x, y int) geom.Transform {
		return geom.MakeTransform(o, geom.Pt(x*rules.Lambda, y*rules.Lambda))
	}

	// a 1x1 grid under the editor after each of the edit loop's kinds
	d, grid := newDesign(t, "EDITED")
	ed, err := core.NewEditor(d, grid)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := ed.CreateInstance("SRCELL", fmt.Sprintf("c%d", i), at(geom.R0, 20*(i%4), 24*(i/4)), 1, 1, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	ed.MoveInstance(grid.Instances[5], geom.Pt(rules.Lambda, 0))
	ed.OrientInstance(grid.Instances[10], geom.R180)
	if err := ed.DeleteInstance(grid.Instances[6]); err != nil {
		t.Fatal(err)
	}
	if _, err := ed.CreateInstance("SRCELL", "c6", at(geom.R0, 40, 24), 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{name: "grid nudge+orient+recreate", top: ed.Snapshot().Cell})

	// arrays on one axis, the other, and both, in every orientation the
	// port table must carry (mirrors flip the array-edge sides)
	for _, o := range []geom.Orient{geom.R0, geom.R90, geom.R180, geom.MX, geom.MXR180} {
		for _, s := range [][2]int{{1, 5}, {5, 1}, {3, 4}} {
			top := srArray(t, s[0], s[1], o)
			cases = append(cases, tc{name: fmt.Sprintf("array %dx%d %s", s[0], s[1], o), top: top})
		}
	}
	cases = append(cases, tc{name: "fast array 14x14", top: srArray(t, 14, 14, geom.R0)})

	// CIF leaves: a's OFF lands on b's metal and the mirrored array's
	// last OFF on a's (both resolve only in context), UP resolves
	// nowhere, and the arrayed copies' W ports are local
	d, top := newDesign(t, "CIFOFF")
	cifLeaf(t, d, false)
	place(t, d, top, "PADX", "a", geom.Identity)
	place(t, d, top, "PADX", "b", geom.MakeTransform(geom.R0, geom.Pt(500, 0)))
	place(t, d, top, "PADX", "c", geom.MakeTransform(geom.R90, geom.Pt(0, 1000)))
	arr := place(t, d, top, "PADX", "r", geom.MakeTransform(geom.MX, geom.Pt(2000, 0)))
	arr.Nx, arr.Ny, arr.Sx, arr.Sy = 3, 2, 800, 600
	cases = append(cases, tc{name: "cif off-material", top: top, context: true,
		has: []string{"a.P", "a.OFF", "r.W[0,1]", "r.OFF[2,0]"}, lacks: []string{"b.OFF", "a.UP"}})

	d, top = newDesign(t, "CIFNONE")
	cifLeaf(t, d, true)
	place(t, d, top, "PADX", "a", geom.Identity)
	arr = place(t, d, top, "PADX", "r", geom.MakeTransform(geom.R180, geom.Pt(2000, 0)))
	arr.Nx, arr.Ny, arr.Sx, arr.Sy = 2, 2, 800, 600
	cases = append(cases, tc{name: "cif no layer", top: top, context: true,
		has: []string{"a.P"}, lacks: []string{"a.Z"}})

	// a composition instance next to leaf placements
	d, top = newDesign(t, "NESTED")
	row := core.NewComposition("ROW")
	if err := d.AddCell(row); err != nil {
		t.Fatal(err)
	}
	sr := place(t, d, row, "SRCELL", "a", geom.Identity)
	sr.Nx, sr.Sx = 3, 20*rules.Lambda
	place(t, d, row, "NAND", "n", at(geom.R0, 80, 0))
	place(t, d, top, "ROW", "r0", geom.Identity)
	place(t, d, top, "ROW", "r1", at(geom.R90, 0, 200))
	place(t, d, top, "SRCELL", "s", at(geom.R0, 0, 24))
	cases = append(cases, tc{name: "composition instance", top: top, context: true,
		has: []string{"r0.a.IN[0]", "s.OUT"}})

	// extra connectors: CLK at a brought-out route's top end; k.UP
	// repeats the name of k's unresolvable top-edge connector (the edge
	// connector wins the name, so the label stays unresolved); b.OUT
	// repeats an interior connector's name at another net (the instance
	// pass overwrites it)
	d, top = newDesign(t, "EXTRAS")
	cifLeaf(t, d, false)
	ed, err = core.NewEditor(d, top)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ed.CreateInstance("SRCELL", "a", geom.Identity, 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ed.CreateInstance("SRCELL", "b", at(geom.R0, 40, 0), 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ed.CreateInstance("SRCELL", "c", at(geom.R0, 40, 48), 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	k, err := ed.CreateInstance("PADX", "k", geom.MakeTransform(geom.R0, geom.Pt(100*rules.Lambda, 72*rules.Lambda-100)), 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	route, err := ed.BringOut(a, []string{"PHI1", "PHI2"}, geom.SideTop)
	if err != nil || route == nil {
		t.Fatalf("bring-out: %v", err)
	}
	up, err := k.Connector("UP")
	if err != nil {
		t.Fatal(err)
	}
	if geom.SideOf(top.BBox(), up.At) == geom.SideNone {
		t.Fatalf("k.UP at %v is not on the top's edge %v", up.At, top.BBox())
	}
	clk, err := route.Connector("C0.t")
	if err != nil {
		t.Fatal(err)
	}
	top.ExtraConnectors = append(top.ExtraConnectors,
		core.Connector{Name: "CLK", At: clk.At, Layer: clk.Layer},
		core.Connector{Name: "k.UP", At: clk.At, Layer: clk.Layer},
		core.Connector{Name: "b.OUT", At: clk.At, Layer: clk.Layer})
	cases = append(cases, tc{name: "extra connectors", top: top, context: true,
		has: []string{"CLK", "b.OUT", "k.P"}, lacks: []string{"k.UP"}})

	return cases
}

// TestCircuitLabelsExact is the label differential: the materialized
// circuit (labels, devices, net count) of every case equals the flat
// extractor's, and labels take the spatial query only where a port
// table cannot answer.
func TestCircuitLabelsExact(t *testing.T) {
	for _, tc := range labelCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			e.Log = obs.Discard
			res, ok := e.Verify(tc.top)
			if !ok {
				t.Fatalf("engine declined: %v", e.LastDeclineInfo())
			}
			ckt, err := res.Circuit()
			if err != nil {
				t.Fatal(err)
			}
			want, err := extract.FromCell(tc.top)
			if err != nil {
				t.Fatal(err)
			}
			got, wantNames := ckt.NetOf(tc.top), want.NetOf(tc.top)
			if !reflect.DeepEqual(got, wantNames) {
				for name, n := range wantNames {
					if g, ok := got[name]; !ok || g != n {
						t.Errorf("label %s: hier %d (present %v), flat %d", name, g, ok, n)
					}
				}
				for name, n := range got {
					if _, ok := wantNames[name]; !ok {
						t.Errorf("label %s: hier %d, flat leaves it unresolved", name, n)
					}
				}
			}
			if !reflect.DeepEqual(ckt, want) {
				t.Fatalf("circuit differs from flat")
			}
			for _, name := range tc.has {
				if _, ok := wantNames[name]; !ok {
					t.Errorf("flat leaves %s unresolved; the case misses its edge", name)
				}
			}
			for _, name := range tc.lacks {
				if _, ok := wantNames[name]; ok {
					t.Errorf("flat resolves %s; the case misses its edge", name)
				}
			}
			st := e.Stats()
			if st.LabelsLocal == 0 {
				t.Errorf("no label came from a port table: %+v", st)
			}
			if got := st.LabelsContext > 0; got != tc.context {
				t.Errorf("%d label(s) took the spatial query, want context = %v", st.LabelsContext, tc.context)
			}
		})
	}
}

// TestLibraryPortsResolveLocally pins that every library cell's
// connectors name a net of the cell's own material in all eight
// orientations, so designs built from the library materialize every
// label from port tables.
func TestLibraryPortsResolveLocally(t *testing.T) {
	for _, cell := range []string{"SRCELL", "NAND", "OR4", "PIPEM", "PIPEP", "PADIN", "PADOUT"} {
		for o := geom.R0; o <= geom.MXR270; o++ {
			d, top := newDesign(t, "ONE")
			place(t, d, top, cell, "x", geom.MakeTransform(o, geom.Pt(0, 0)))
			e := New()
			res, ok := e.Verify(top)
			if !ok {
				t.Fatalf("%s %s: engine declined: %v", cell, o, e.LastDeclineInfo())
			}
			ckt, err := res.Circuit()
			if err != nil {
				t.Fatal(err)
			}
			if want, err := extract.FromCell(top); err != nil || !reflect.DeepEqual(ckt, want) {
				t.Fatalf("%s %s: circuit differs from flat (flat error %v)", cell, o, err)
			}
			if st, n := e.Stats(), len(ckt.NetOf(top)); st.LabelsContext != 0 || st.LabelsLocal != n {
				t.Errorf("%s %s: labels %d local, %d context, %d resolved", cell, o, st.LabelsLocal, st.LabelsContext, n)
			}
		}
	}
}
