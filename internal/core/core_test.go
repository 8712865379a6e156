package core

import (
	"testing"

	"riot/internal/cif"
	"riot/internal/geom"
	"riot/internal/rules"
	"riot/internal/sticks"
)

const L = rules.Lambda

// stickCell builds a 20x10-lambda symbolic leaf cell with connectors on
// all four sides:
//
//	       T1        T2
//	  +----+---------+----+ 10
//	IN|                   |OUT   (metal, mid height)
//	  +----+---------+----+ 0
//	       B1        B2
//	  0    5         15   20
func stickCell(name string) *sticks.Cell {
	return &sticks.Cell{
		Name:   name,
		Box:    geom.R(0, 0, 20, 10),
		HasBox: true,
		Wires: []sticks.Wire{
			{Layer: geom.NM, Width: 2, Points: []geom.Point{{X: 0, Y: 5}, {X: 20, Y: 5}}},
			{Layer: geom.NM, Width: 2, Points: []geom.Point{{X: 5, Y: 0}, {X: 5, Y: 10}}},
			{Layer: geom.NM, Width: 2, Points: []geom.Point{{X: 15, Y: 0}, {X: 15, Y: 10}}},
		},
		Connectors: []sticks.Connector{
			{Name: "IN", At: geom.Pt(0, 5), Layer: geom.NM, Width: 2, Side: geom.SideLeft},
			{Name: "OUT", At: geom.Pt(20, 5), Layer: geom.NM, Width: 2, Side: geom.SideRight},
			{Name: "B1", At: geom.Pt(5, 0), Layer: geom.NM, Width: 2, Side: geom.SideBottom},
			{Name: "B2", At: geom.Pt(15, 0), Layer: geom.NM, Width: 2, Side: geom.SideBottom},
			{Name: "T1", At: geom.Pt(5, 10), Layer: geom.NM, Width: 2, Side: geom.SideTop},
			{Name: "T2", At: geom.Pt(15, 10), Layer: geom.NM, Width: 2, Side: geom.SideTop},
		},
	}
}

func mustLeaf(t *testing.T, name string) *Cell {
	t.Helper()
	c, err := NewLeafFromSticks(stickCell(name))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newEditor(t *testing.T) (*Design, *Editor) {
	t.Helper()
	d := NewDesign()
	top := NewComposition("TOP")
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	e, err := NewEditor(d, top)
	if err != nil {
		t.Fatal(err)
	}
	return d, e
}

func addLeaf(t *testing.T, d *Design, name string) *Cell {
	t.Helper()
	c := mustLeaf(t, name)
	if err := d.AddCell(c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLeafCellBasics(t *testing.T) {
	c := mustLeaf(t, "A")
	if c.Kind != LeafSticks {
		t.Errorf("kind = %v", c.Kind)
	}
	if c.BBox() != geom.R(0, 0, 20*L, 10*L) {
		t.Errorf("bbox = %v", c.BBox())
	}
	conns := c.Connectors()
	if len(conns) != 6 {
		t.Fatalf("connectors = %d", len(conns))
	}
	out, ok := c.ConnectorByName("OUT")
	if !ok || out.At != geom.Pt(20*L, 5*L) || out.Side != geom.SideRight || out.Width != 2*L {
		t.Errorf("OUT = %+v", out)
	}
	if c.CountLeaves() != 1 {
		t.Errorf("CountLeaves = %d", c.CountLeaves())
	}
}

func TestLeafCellFromCIF(t *testing.T) {
	f, err := cif.ParseString("DS 1; 9 PAD; L NM; B 5000 5000 2500 2500; 94 P 2500 0 NM 1000; DF; E")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewLeafFromCIF(f, f.SymbolByID(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "PAD" || c.Kind != LeafCIF {
		t.Errorf("cell = %q %v", c.Name, c.Kind)
	}
	if c.BBox() != geom.R(0, 0, 5000, 5000) {
		t.Errorf("bbox = %v", c.BBox())
	}
	p, ok := c.ConnectorByName("P")
	if !ok || p.Side != geom.SideBottom || p.Width != 1000 {
		t.Errorf("P = %+v", p)
	}
}

func TestLeafCellFromCIFDuplicateConnector(t *testing.T) {
	f, _ := cif.ParseString("DS 1; L NM; B 4 4 2 2; 94 P 0 0 NM 2; 94 P 4 4 NM 2; DF; E")
	if _, err := NewLeafFromCIF(f, f.SymbolByID(1)); err == nil {
		t.Error("accepted duplicate connectors")
	}
}

func TestInstanceTransformedConnectors(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "A")
	in, err := e.CreateInstance("A", "a1", geom.MakeTransform(geom.R90, geom.Pt(100*L, 0)), 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// R90 rotates the right-side OUT connector to the top
	out, err := in.Connector("OUT")
	if err != nil {
		t.Fatal(err)
	}
	if out.Side != geom.SideTop {
		t.Errorf("rotated OUT side = %v", out.Side)
	}
	// position: R90(20L,5L) = (-5L,20L) + (100L,0) = (95L,20L)
	if out.At != geom.Pt(95*L, 20*L) {
		t.Errorf("rotated OUT at %v", out.At)
	}
}

func TestArrayConnectorExposure(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "A")
	// 3-wide row, abutting (default spacing = cell width)
	in, err := e.CreateInstance("A", "row", geom.Identity, 3, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in.Sx != 20*L {
		t.Errorf("default spacing = %d, want %d", in.Sx, 20*L)
	}
	conns := in.Connectors()
	// visible: IN from copy 0, OUT from copy 2, B1/B2/T1/T2 from all 3
	names := map[string]bool{}
	for _, c := range conns {
		names[c.Name] = true
	}
	for _, want := range []string{"IN[0]", "OUT[2]", "B1[0]", "B2[2]", "T1[1]"} {
		if !names[want] {
			t.Errorf("missing connector %s (have %v)", want, names)
		}
	}
	for _, banned := range []string{"IN[1]", "IN[2]", "OUT[0]", "OUT[1]"} {
		if names[banned] {
			t.Errorf("interior connector %s exposed", banned)
		}
	}
	if len(conns) != 2+3*4 {
		t.Errorf("connector count = %d, want %d", len(conns), 2+3*4)
	}
	// array abuts: copy 1's IN position equals copy 0's OUT position
	if in.BBox() != geom.R(0, 0, 60*L, 10*L) {
		t.Errorf("array bbox = %v", in.BBox())
	}
}

func TestArray2DNaming(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "A")
	in, err := e.CreateInstance("A", "grid", geom.Identity, 2, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Connector("IN[0,1]"); err != nil {
		t.Errorf("2D naming: %v", err)
	}
	if _, err := in.Connector("IN[1,0]"); err == nil {
		t.Error("interior-facing 2D connector exposed")
	}
}

func TestHierarchyCycleRejected(t *testing.T) {
	d, e := newEditor(t)
	sub := NewComposition("SUB")
	if err := d.AddCell(sub); err != nil {
		t.Fatal(err)
	}
	// SUB contains TOP
	se, _ := NewEditor(d, sub)
	addLeaf(t, d, "A")
	if _, err := se.CreateInstance("TOP", "", geom.Identity, 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	// TOP may not now contain SUB
	if _, err := e.CreateInstance("SUB", "", geom.Identity, 1, 1, 0, 0); err == nil {
		t.Error("hierarchy cycle accepted")
	}
	if _, err := e.CreateInstance("TOP", "", geom.Identity, 1, 1, 0, 0); err == nil {
		t.Error("self-instantiation accepted")
	}
}

func TestDesignRegistry(t *testing.T) {
	d := NewDesign()
	a := mustLeaf(t, "A")
	if err := d.AddCell(a); err != nil {
		t.Fatal(err)
	}
	if err := d.AddCell(mustLeaf(t, "A")); err == nil {
		t.Error("duplicate cell name accepted")
	}
	if err := d.RenameCell("A", "B"); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Cell("A"); ok {
		t.Error("old name still resolves")
	}
	if c, ok := d.Cell("B"); !ok || c != a {
		t.Error("new name does not resolve")
	}
	top := NewComposition("TOP")
	top.Instances = append(top.Instances, NewInstance("i", a, geom.Identity))
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteCell("B"); err == nil {
		t.Error("deleted a cell still in use")
	}
	if err := d.DeleteCell("TOP"); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteCell("B"); err != nil {
		t.Fatal(err)
	}
	if n := d.GenName("ROUTE"); n == "" {
		t.Error("GenName empty")
	}
}

func TestConnectionValidation(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "A")
	a, _ := e.CreateInstance("A", "a", geom.Identity, 1, 1, 0, 0)
	b, _ := e.CreateInstance("A", "b", geom.MakeTransform(geom.R0, geom.Pt(40*L, 0)), 1, 1, 0, 0)

	// OUT (right) to IN (left): opposed, same layer: OK
	if err := e.AddConnection(b, "IN", a, "OUT"); err != nil {
		t.Fatalf("valid connection rejected: %v", err)
	}
	if len(e.Pending) != 1 {
		t.Fatalf("pending = %d", len(e.Pending))
	}
	// not opposed: OUT to OUT
	if err := e.AddConnection(b, "OUT", a, "OUT"); err == nil {
		t.Error("non-opposed connection accepted")
	}
	// self connection
	if err := e.AddConnection(a, "IN", a, "OUT"); err == nil {
		t.Error("self connection accepted")
	}
	// unknown connector
	if err := e.AddConnection(b, "NOPE", a, "OUT"); err == nil {
		t.Error("unknown connector accepted")
	}
	// one-to-many: connections from a different from-instance rejected
	if err := e.AddConnection(a, "IN", b, "OUT"); err == nil {
		t.Error("second from-instance accepted (one-to-many violated)")
	}
	// same from is fine
	if err := e.AddConnection(b, "B1", a, "T1"); err == nil {
		// B1 bottom vs T1 top: opposed; but b is to the right, still legal
	} else {
		t.Errorf("second connection from same instance rejected: %v", err)
	}
	e.ClearConnections()
	if len(e.Pending) != 0 {
		t.Error("ClearConnections failed")
	}
}

func TestConnectionLayerMismatch(t *testing.T) {
	d, e := newEditor(t)
	// build a cell with a poly connector opposite A's metal one
	sc := stickCell("P")
	sc.Connectors[0].Layer = geom.NP // IN is poly now
	sc.Wires = append(sc.Wires, sticks.Wire{Layer: geom.NP, Width: 2, Points: []geom.Point{{X: 0, Y: 5}, {X: 3, Y: 5}}})
	pc, err := NewLeafFromSticks(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddCell(pc); err != nil {
		t.Fatal(err)
	}
	addLeaf(t, d, "A")
	a, _ := e.CreateInstance("A", "a", geom.Identity, 1, 1, 0, 0)
	p, _ := e.CreateInstance("P", "p", geom.MakeTransform(geom.R0, geom.Pt(40*L, 0)), 1, 1, 0, 0)
	if err := e.AddConnection(p, "IN", a, "OUT"); err == nil {
		t.Error("cross-layer connection accepted")
	}
}

func TestAbutPlain(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "A")
	a, _ := e.CreateInstance("A", "a", geom.Identity, 1, 1, 0, 0)
	b, _ := e.CreateInstance("A", "b", geom.MakeTransform(geom.R0, geom.Pt(100*L, 33*L)), 1, 1, 0, 0)
	if err := e.AddAbutLink(b, a); err != nil {
		t.Fatal(err)
	}
	warns, err := e.Abut(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 0 {
		t.Errorf("warnings: %v", warns)
	}
	// b was right of a: b's left edge touches a's right edge, bottoms align
	if b.BBox().Min.X != a.BBox().Max.X {
		t.Errorf("edges do not touch: %v vs %v", b.BBox(), a.BBox())
	}
	if b.BBox().Min.Y != a.BBox().Min.Y {
		t.Errorf("bottoms do not align: %v vs %v", b.BBox(), a.BBox())
	}
	if len(e.Pending) != 0 {
		t.Error("pending list not consumed")
	}
}

func TestAbutVertical(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "A")
	a, _ := e.CreateInstance("A", "a", geom.Identity, 1, 1, 0, 0)
	b, _ := e.CreateInstance("A", "b", geom.MakeTransform(geom.R0, geom.Pt(3*L, 90*L)), 1, 1, 0, 0)
	if err := e.AddAbutLink(b, a); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Abut(false); err != nil {
		t.Fatal(err)
	}
	if b.BBox().Min.Y != a.BBox().Max.Y {
		t.Errorf("vertical edges do not touch")
	}
	if b.BBox().Min.X != a.BBox().Min.X {
		t.Errorf("left edges do not align")
	}
}

func TestAbutWithConnectors(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "A")
	a, _ := e.CreateInstance("A", "a", geom.Identity, 1, 1, 0, 0)
	// b placed right of a, vertically offset; connecting b.IN to a.OUT
	b, _ := e.CreateInstance("A", "b", geom.MakeTransform(geom.R0, geom.Pt(77*L, 13*L)), 1, 1, 0, 0)
	if err := e.AddConnection(b, "IN", a, "OUT"); err != nil {
		t.Fatal(err)
	}
	warns, err := e.Abut(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 0 {
		t.Errorf("warnings: %v", warns)
	}
	bin, _ := b.Connector("IN")
	aout, _ := a.Connector("OUT")
	if bin.At != aout.At {
		t.Errorf("connectors do not coincide: %v vs %v", bin.At, aout.At)
	}
	// the connection is positional only: moving b destroys it silently
	e.MoveInstance(b, geom.Pt(5*L, 0))
	bin, _ = b.Connector("IN")
	if bin.At == aout.At {
		t.Error("connector still coincides after move")
	}
}

func TestAbutWarningOnMismatch(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "A")
	a, _ := e.CreateInstance("A", "a", geom.Identity, 1, 1, 0, 0)
	b, _ := e.CreateInstance("A", "b", geom.MakeTransform(geom.R0, geom.Pt(70*L, 0)), 1, 1, 0, 0)
	// B1/B2 on b's bottom vs T1/T2 on a's top, but request crossed
	// pairs that a single translation cannot satisfy
	if err := e.AddConnection(b, "B1", a, "T1"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddConnection(b, "B2", a, "T1"); err != nil {
		t.Fatal(err)
	}
	warns, err := e.Abut(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 1 {
		t.Errorf("want 1 warning, got %v", warns)
	}
}

func TestAbutOverlapSharesRail(t *testing.T) {
	d, e := newEditor(t)
	// cell with an inset power connector: overlap abutment should
	// overlap the bounding boxes to make the connectors coincide
	sc := stickCell("R")
	sc.Connectors = append(sc.Connectors, sticks.Connector{
		Name: "VDD", At: geom.Pt(19, 5), Layer: geom.NM, Width: 2, Side: geom.SideNone,
	})
	sc2 := stickCell("S")
	sc2.Connectors = append(sc2.Connectors, sticks.Connector{
		Name: "VDD", At: geom.Pt(1, 5), Layer: geom.NM, Width: 2, Side: geom.SideNone,
	})
	rc, _ := NewLeafFromSticks(sc)
	scell, _ := NewLeafFromSticks(sc2)
	if err := d.AddCell(rc); err != nil {
		t.Fatal(err)
	}
	if err := d.AddCell(scell); err != nil {
		t.Fatal(err)
	}
	r, _ := e.CreateInstance("R", "r", geom.Identity, 1, 1, 0, 0)
	s, _ := e.CreateInstance("S", "s", geom.MakeTransform(geom.R0, geom.Pt(60*L, 0)), 1, 1, 0, 0)
	// interior connectors are not "opposed", so use the low-level list
	// the way the overlap option does: force the link in directly
	e.Pending = append(e.Pending, Connection{From: s, FromConn: "VDD", To: r, ToConn: "VDD"})
	warns, err := e.Abut(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 0 {
		t.Errorf("warnings: %v", warns)
	}
	sv, _ := s.Connector("VDD")
	rv, _ := r.Connector("VDD")
	if sv.At != rv.At {
		t.Errorf("shared connectors do not coincide: %v vs %v", sv.At, rv.At)
	}
	if !s.BBox().Overlaps(r.BBox()) {
		t.Error("overlap abutment did not overlap the instances")
	}
}

func TestAbutEmptyPending(t *testing.T) {
	_, e := newEditor(t)
	if _, err := e.Abut(false); err == nil {
		t.Error("abut with empty pending list accepted")
	}
}

func TestDeleteInstanceCleansPending(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "A")
	a, _ := e.CreateInstance("A", "a", geom.Identity, 1, 1, 0, 0)
	b, _ := e.CreateInstance("A", "b", geom.MakeTransform(geom.R0, geom.Pt(50*L, 0)), 1, 1, 0, 0)
	if err := e.AddConnection(b, "IN", a, "OUT"); err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteInstance(a); err != nil {
		t.Fatal(err)
	}
	if len(e.Pending) != 0 {
		t.Error("pending connection to deleted instance survives")
	}
	if len(e.Cell.Instances) != 1 {
		t.Error("instance not removed")
	}
	if err := e.DeleteInstance(a); err == nil {
		t.Error("double delete accepted")
	}
}

func TestOrientInstanceKeepsCorner(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "A")
	a, _ := e.CreateInstance("A", "a", geom.MakeTransform(geom.R0, geom.Pt(10*L, 20*L)), 1, 1, 0, 0)
	before := a.BBox()
	e.OrientInstance(a, geom.R90)
	after := a.BBox()
	if before.Min != after.Min {
		t.Errorf("orientation moved the corner: %v -> %v", before.Min, after.Min)
	}
	if after.W() != before.H() || after.H() != before.W() {
		t.Errorf("rotation did not swap extents: %v -> %v", before, after)
	}
}

func TestCompositionConnectorsOnBBox(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "A")
	a, _ := e.CreateInstance("A", "a", geom.Identity, 1, 1, 0, 0)
	b, _ := e.CreateInstance("A", "b", geom.MakeTransform(geom.R0, geom.Pt(20*L, 0)), 1, 1, 0, 0)
	_ = a
	_ = b
	conns := e.Cell.Connectors()
	names := map[string]geom.Side{}
	for _, c := range conns {
		names[c.Name] = c.Side
	}
	// a.IN on the left edge, b.OUT on the right edge are exported;
	// a.OUT and b.IN coincide in the interior and are not
	if names["a.IN"] != geom.SideLeft {
		t.Errorf("a.IN side = %v", names["a.IN"])
	}
	if names["b.OUT"] != geom.SideRight {
		t.Errorf("b.OUT side = %v", names["b.OUT"])
	}
	if _, exported := names["a.OUT"]; exported {
		t.Error("interior connector a.OUT exported")
	}
	// bottom/top connectors of both instances are on the bbox
	if names["a.B1"] != geom.SideBottom || names["b.T2"] != geom.SideTop {
		t.Error("bottom/top connectors not exported")
	}
}

func TestManyToManyViaWrapperCell(t *testing.T) {
	// The paper: "A many-to-many connection can still be made by
	// defining a cell which contains one of the sets of cells, and
	// connecting that one to the other many."
	d, e := newEditor(t)
	addLeaf(t, d, "A")

	// wrapper composition holding two cells side by side
	wrap := NewComposition("PAIR")
	if err := d.AddCell(wrap); err != nil {
		t.Fatal(err)
	}
	we, _ := NewEditor(d, wrap)
	w1, _ := we.CreateInstance("A", "w1", geom.Identity, 1, 1, 0, 0)
	w2, _ := we.CreateInstance("A", "w2", geom.MakeTransform(geom.R0, geom.Pt(20*L, 0)), 1, 1, 0, 0)
	_, _ = w1, w2

	// now TOP: one instance of PAIR connects to two separate A's
	p, _ := e.CreateInstance("PAIR", "p", geom.MakeTransform(geom.R0, geom.Pt(0, 50*L)), 1, 1, 0, 0)
	a1, _ := e.CreateInstance("A", "a1", geom.Identity, 1, 1, 0, 0)
	a2, _ := e.CreateInstance("A", "a2", geom.MakeTransform(geom.R0, geom.Pt(20*L, 0)), 1, 1, 0, 0)

	// p's bottom connectors expose w1.B1... over both wrapped cells
	if err := e.AddConnection(p, "w1.B1", a1, "T1"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddConnection(p, "w2.B2", a2, "T2"); err != nil {
		t.Fatal(err)
	}
	warns, err := e.Abut(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 0 {
		t.Errorf("warnings: %v", warns)
	}
	pc, _ := p.Connector("w1.B1")
	ac, _ := a1.Connector("T1")
	if pc.At != ac.At {
		t.Errorf("many-to-many abutment failed: %v vs %v", pc.At, ac.At)
	}
}

// TestEditorNameIndex checks the editor's instance name index against
// a linear scan of the cell after creates, deletes, a route and a
// bring-out.
func TestEditorNameIndex(t *testing.T) {
	d, e, a, b := routeSetup(t)
	agree := func(step string, gone ...string) {
		t.Helper()
		names := map[string]bool{}
		for _, in := range e.Cell.Instances {
			names[in.Name] = true
			want, _ := e.Cell.InstanceByName(in.Name)
			if got, ok := e.Instance(in.Name); !ok || got != want {
				t.Fatalf("%s: index has %q -> %v, the scan finds %v", step, in.Name, got, want)
			}
		}
		if len(e.byName) != len(names) {
			t.Fatalf("%s: index holds %d names, the cell %d", step, len(e.byName), len(names))
		}
		for _, n := range gone {
			if _, ok := e.Instance(n); ok {
				t.Fatalf("%s: deleted instance %q still indexed", step, n)
			}
		}
	}
	agree("setup")
	for i := 0; i < 4; i++ {
		if _, err := e.CreateInstance("A", "", geom.Translate(geom.Pt(100*L*(i+1), 0)), 1, 1, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.CreateInstance("A", "a", geom.Identity, 1, 1, 0, 0); err == nil {
		t.Fatal("duplicate instance name accepted")
	}
	agree("creates")
	if err := e.DeleteInstance(e.Cell.Instances[3]); err != nil {
		t.Fatal(err)
	}
	agree("delete", "A_2")
	if err := e.AddConnection(b, "B1", a, "T1"); err != nil {
		t.Fatal(err)
	}
	res, err := e.RouteConnect(RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := e.Instance(res.RouteInst.Name); got != res.RouteInst {
		t.Fatal("route instance not indexed")
	}
	agree("route", "A_2")
	ri, err := e.BringOut(a, []string{"T2"}, geom.SideTop)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := e.Instance(ri.Name); got != ri {
		t.Fatal("bring-out instance not indexed")
	}
	agree("bring-out", "A_2")
	if err := e.DeleteInstance(res.RouteInst); err != nil {
		t.Fatal(err)
	}
	agree("delete route", "A_2", res.RouteInst.Name)
	_ = d
}
