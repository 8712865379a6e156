package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"riot/internal/cif"
	"riot/internal/geom"
)

// scanConnector resolves a connector name by scanning the instance's
// placed list, the way Instance.Connector did before the memo.
func scanConnector(in *Instance, name string) (InstConn, bool) {
	for _, ic := range in.Connectors() {
		if ic.Name == name {
			return ic, true
		}
	}
	return InstConn{}, false
}

// deriveConnectors is the recursive derivation Cell.Connectors made
// before the memo, from exported fields only: a leaf's own connectors;
// a composition's instance connectors on its box edge, deduped by
// name, then each extra that neither an earlier extra nor an exported
// instance connector names.
func deriveConnectors(c *Cell) []Connector {
	var out []Connector
	switch c.Kind {
	case LeafCIF:
		for _, cn := range c.Symbol.Connectors() {
			out = append(out, Connector{cn.Name, cn.At, cn.Layer, cn.Width, geom.SideOf(c.CIFBox, cn.At)})
		}
		return out
	case LeafSticks:
		u := c.Sticks.EffUnits()
		for _, cn := range c.Sticks.Connectors {
			out = append(out, Connector{cn.Name, geom.Pt(cn.At.X*u, cn.At.Y*u), cn.Layer, cn.EffWidth() * u, cn.Side})
		}
		return out
	}
	box := c.BBox()
	seen := map[string]bool{}
	for _, in := range c.Instances {
		conns := deriveConnectors(in.Cell)
		in.Sites(conns, func(i, j, k int) {
			at := in.CopyTransform(i, j).Apply(conns[k].At)
			name := in.Name + "." + copyName(conns[k].Name, i, j, in.Nx, in.Ny)
			if side := geom.SideOf(box, at); side != geom.SideNone && !seen[name] {
				seen[name] = true
				out = append(out, Connector{name, at, conns[k].Layer, conns[k].Width, side})
			}
		})
	}
	for k, cn := range c.ExtraConnectors {
		earlier := slices.ContainsFunc(c.ExtraConnectors[:k], func(p Connector) bool { return p.Name == cn.Name })
		if !earlier && !seen[cn.Name] {
			cn.Side = geom.SideOf(box, cn.At)
			out = append(out, cn)
		}
	}
	return out
}

// copyName is the documented array naming: "OUT" on a 1x1 instance,
// "OUT[k]" on a one-axis array, "OUT[i,j]" on a grid.
func copyName(base string, i, j, nx, ny int) string {
	switch {
	case nx == 1 && ny == 1:
		return base
	case ny == 1:
		return fmt.Sprintf("%s[%d]", base, i)
	case nx == 1:
		return fmt.Sprintf("%s[%d]", base, j)
	}
	return fmt.Sprintf("%s[%d,%d]", base, i, j)
}

// memoCells returns the cells the lookup test places: a sticks leaf; a
// CIF leaf with an interior connector; a composition of two abutting
// leaves with extras (one on its box, one dropped for an instance
// connector's name, one for an earlier extra's); and a composition
// holding a 2x3 grid and a 3x1 row, so its names carry [i,j] and [k]
// before an instance's own suffix.
func memoCells(t *testing.T) []*Cell {
	d := NewDesign()
	a := addLeaf(t, d, "A")
	f, err := cif.ParseString("DS 1; 9 PAD; L NM; B 4000 2000 2000 1000; 94 W 0 1000 NM 200; 94 E 4000 1000 NM 200; 94 S 2000 0 NM 200; 94 N 1500 2000 NM 200; 94 C 2000 1000 NM 200; DF; E")
	if err != nil {
		t.Fatal(err)
	}
	pad, err := NewLeafFromCIF(f, f.SymbolByID(1))
	if err != nil {
		t.Fatal(err)
	}
	compose := func(name string, place func(e *Editor)) *Cell {
		c := NewComposition(name)
		if err := d.AddCell(c); err != nil {
			t.Fatal(err)
		}
		e, err := NewEditor(d, c)
		if err != nil {
			t.Fatal(err)
		}
		place(e)
		return c
	}
	create := func(e *Editor, cell, name string, at geom.Point, nx, ny int) {
		if _, err := e.CreateInstance(cell, name, geom.Translate(at), nx, ny, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	pair := compose("PAIR", func(e *Editor) {
		create(e, "A", "a", geom.Point{}, 1, 1)
		create(e, "A", "b", geom.Pt(20*L, 0), 1, 1)
	})
	pair.ExtraConnectors = []Connector{
		{Name: "EXT", At: geom.Pt(0, 2*L), Layer: geom.NM, Width: 2 * L, Side: geom.SideLeft},
		{Name: "a.IN", At: geom.Pt(3*L, 3*L), Layer: geom.NM},
		{Name: "EXT", At: geom.Pt(5*L, 5*L), Layer: geom.NP},
	}
	arr := compose("ARR", func(e *Editor) {
		create(e, "A", "g", geom.Point{}, 2, 3)
		create(e, "A", "r", geom.Pt(0, 30*L), 3, 1)
	})
	return []*Cell{a, pad, pair, arr}
}

// nonNames lists names no copy of in shows: an interior copy's, an
// out-of-range index, non-canonical suffixes, a suffix of the wrong
// arity, a base name on an array, a suffix on a 1x1 instance and the
// empty name.
func nonNames(in *Instance, base string) []string {
	out := []string{"", base + "[0][0]"}
	switch {
	case !in.IsArray():
		out = append(out, base+"[0]", base+"[0,0]")
	case in.Nx > 1 && in.Ny > 1:
		out = append(out, base, base+"[0]", base+"[0, 0]", base+"[00,0]", base+"[0,+1]",
			copyName(base, in.Nx, 0, in.Nx, in.Ny), copyName(base, 0, in.Ny, in.Nx, in.Ny))
		if in.Nx > 2 && in.Ny > 2 {
			out = append(out, copyName(base, 1, 1, in.Nx, in.Ny))
		}
	default:
		n := max(in.Nx, in.Ny)
		out = append(out, base, base+"[0,0]", base+"[01]", base+"[+1]", base+"[1, 0]", base+"[ 1]",
			copyName(base, n, 0, n, 1))
	}
	return out
}

// TestInstanceConnectorMatchesListing checks Instance.Connector, which
// resolves a name without listing, against a scan of the placed list:
// over sticks and CIF leaves and compositions, 1x1 and array
// placements of both pitch signs, in all eight orientations, every
// listed name resolves to the identical InstConn, every base name at
// every copy index in and around the grid agrees with the scan, and
// every non-name fails with the scan's error.
func TestInstanceConnectorMatchesListing(t *testing.T) {
	checked := 0
	for _, c := range memoCells(t) {
		cb := c.BBox()
		for o := geom.R0; o <= geom.MXR270; o++ {
			for _, g := range [][2]int{{1, 1}, {1, 4}, {4, 1}, {3, 4}} {
				for _, sign := range []int{1, -1} {
					in := &Instance{Name: "i", Cell: c, Tr: geom.MakeTransform(o, geom.Pt(7*L, -3*L)),
						Nx: g[0], Ny: g[1], Sx: sign * cb.W(), Sy: sign * cb.H()}
					where := fmt.Sprintf("%s %v %dx%d pitch sign %d", c.Name, o, in.Nx, in.Ny, sign)
					for _, want := range in.Connectors() {
						first, _ := scanConnector(in, want.Name)
						if got, err := in.Connector(want.Name); err != nil || got != first {
							t.Errorf("%s: Connector(%q) = %+v, %v; the scan finds %+v", where, want.Name, got, err, first)
						}
						checked++
					}
					for _, cn := range c.Connectors() {
						for i := -1; i <= in.Nx; i++ {
							for j := -1; j <= in.Ny; j++ {
								name := copyName(cn.Name, i, j, in.Nx, in.Ny)
								want, listed := scanConnector(in, name)
								got, err := in.Connector(name)
								if listed != (err == nil) || got != want {
									t.Errorf("%s: Connector(%q) = %+v, %v; the scan finds %+v (%v)", where, name, got, err, want, listed)
								}
							}
						}
						for _, name := range nonNames(in, cn.Name) {
							msg := fmt.Sprintf("core: instance i has no connector %q", name)
							if _, err := in.Connector(name); err == nil || err.Error() != msg {
								t.Errorf("%s: Connector(%q) = %v, want %q", where, name, err, msg)
							}
							if _, listed := scanConnector(in, name); listed {
								t.Errorf("%s: %q is listed, not a non-name", where, name)
							}
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no connector listed")
	}
}

// TestConnectorMemoInvalidation checks that a cell's connector list
// equals a fresh recursive derivation after every kind of change:
// each editor command, an edit through a second editor on a
// sub-composition, an announced leaf mutation that moves a connector,
// and a composition assembled without an editor, as the compo loader
// does, whose instances and extras change in place.
func TestConnectorMemoInvalidation(t *testing.T) {
	d, e := newEditor(t)
	leaf := addLeaf(t, d, "A")
	sub := NewComposition("SUB")
	if err := d.AddCell(sub); err != nil {
		t.Fatal(err)
	}
	es, err := NewEditor(d, sub)
	if err != nil {
		t.Fatal(err)
	}
	x, err := es.CreateInstance("A", "x", geom.Identity, 2, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, cells ...*Cell) {
		t.Helper()
		for _, c := range append(cells, e.Cell, sub, leaf) {
			if got, want := c.Connectors(), deriveConnectors(c); !slices.Equal(got, want) {
				t.Fatalf("after %s, %s lists\n%v\nwant\n%v", step, c.Name, got, want)
			}
		}
		for _, in := range e.Cell.Instances {
			for _, ic := range in.Connectors() {
				if got, err := in.Connector(ic.Name); err != nil || got != ic {
					t.Fatalf("after %s, %s.Connector(%q) = %+v, %v; want %+v", step, in.Name, ic.Name, got, err, ic)
				}
			}
		}
	}
	create := func(cell, name string, at geom.Point, nx int) *Instance {
		t.Helper()
		in, err := e.CreateInstance(cell, name, geom.Translate(at), nx, 1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		check("CREATE " + name)
		return in
	}
	connect := func(from *Instance, fc string, to *Instance, tc string) {
		t.Helper()
		if err := e.AddConnection(from, fc, to, tc); err != nil {
			t.Fatal(err)
		}
	}

	a := create("A", "a", geom.Pt(10*L, 0), 1)
	w := create("A", "w", geom.Pt(0, 30*L), 3)
	if _, err := e.BringOut(a, []string{"T1", "T2"}, geom.SideTop); err != nil {
		t.Fatal(err)
	}
	check("BRINGOUT")
	s := create("SUB", "s", geom.Pt(100*L, 0), 1)
	es.MoveInstance(x, geom.Pt(0, 5*L))
	check("a move through SUB's editor")
	e.MoveInstance(s, geom.Pt(L, 0))
	check("MOVE")
	e.OrientInstance(s, geom.R90)
	check("ORIENT")
	if err := e.Replicate(w, 2, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	check("REPLICATE")
	if err := e.DeleteInstance(create("A", "tmp", geom.Pt(0, 80*L), 1)); err != nil {
		t.Fatal(err)
	}
	check("DELETE")

	b := create("A", "b", geom.Pt(207*L, 60*L), 1)
	c := create("A", "c", geom.Pt(200*L, 0), 1)
	connect(b, "B1", c, "T1")
	connect(b, "B2", c, "T2")
	if _, err := e.RouteConnect(RouteOptions{}); err != nil {
		t.Fatal(err)
	}
	check("ROUTE")
	p := create("A", "p", geom.Pt(300*L, 0), 1)
	q := create("A", "q", geom.Pt(330*L, 0), 1)
	r := create("A", "r", geom.Pt(300*L, 50*L), 1)
	connect(r, "B1", p, "T1")
	connect(r, "B2", q, "T2")
	if _, err := e.StretchConnect(); err != nil {
		t.Fatal(err)
	}
	check("STRETCH")

	sc := *leaf.Sticks
	sc.Connectors = slices.Clone(sc.Connectors)
	sc.Connectors[0].At.Y++ // IN, on the left edge
	leaf.Sticks = &sc
	leaf.MarkMutated()
	check("MarkMutated on A")

	// a composition assembled the compo loader's way: no editor, so
	// its revision never moves
	load := NewComposition("LOAD")
	check("an empty composition", load)
	load.Instances = append(load.Instances, NewInstance("a", leaf, geom.Identity))
	check("an appended instance", load)
	load.Instances = append(load.Instances, &Instance{Name: "s", Cell: sub, Tr: geom.Translate(geom.Pt(40*L, 0)), Nx: 1, Ny: 2, Sy: 50 * L})
	check("an appended array", load)
	load.ExtraConnectors = append(load.ExtraConnectors, Connector{Name: "EXT", At: geom.Pt(0, L), Layer: geom.NM})
	check("an appended extra", load)
	load.ExtraConnectors[0].At.X = -L
	check("an extra moved in place", load)
	load.Instances[0].Tr = geom.MakeTransform(geom.MX, geom.Pt(20*L, 0))
	check("an instance turned in place", load)
	load.Instances[1].Name = "t"
	check("an instance renamed in place", load)
	load.Instances[0] = NewInstance("a", leaf, geom.Identity)
	check("an instance replaced", load)
}

// TestConnectorLookupAllocs pins that a lookup served by a current
// memo allocates nothing, on a leaf, a 32x1 and a 32x32 array of it
// and a composition of 32x32 individually placed copies.
func TestConnectorLookupAllocs(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "A")
	leaf1, err := e.CreateInstance("A", "one", geom.Identity, 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := e.CreateInstance("A", "arr", geom.Translate(geom.Pt(0, 20*L)), 32, 32, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	row, err := e.CreateInstance("A", "row", geom.Translate(geom.Pt(0, -20*L)), 32, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	grid := NewComposition("GRID")
	for i := 0; i < 32*32; i++ {
		tr := geom.Translate(geom.Pt(i%32*20*L, i/32*10*L))
		grid.Instances = append(grid.Instances, NewInstance(fmt.Sprintf("c%d", i), arr.Cell, tr))
	}
	gridIn := NewInstance("grid", grid, geom.Translate(geom.Pt(0, 400*L)))
	for _, tc := range []struct {
		in   *Instance
		name string
	}{{leaf1, "OUT"}, {row, "B2[31]"}, {arr, "IN[0,17]"}, {arr, "T2[5,31]"}, {gridIn, "c31.OUT"}, {gridIn, "c1000.T1"}} {
		if _, err := tc.in.Connector(tc.name); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = tc.in.Connector(tc.name) }); n != 0 {
			t.Errorf("%s.Connector(%q) allocates %.1f times per call", tc.in.Name, tc.name, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = grid.ConnectorByName("c0.IN") }); n != 0 {
		t.Errorf("ConnectorByName allocates %.1f times per call", n)
	}
}

// TestConnectorMemoConcurrent has 8 goroutines resolve connectors of
// one shared leaf and one shared snapshot clone, both with no memo at
// the start, as server sessions do; run it under -race.
func TestConnectorMemoConcurrent(t *testing.T) {
	d, e := newEditor(t)
	leaf := addLeaf(t, d, "A")
	if _, err := e.CreateInstance("A", "a", geom.Identity, 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateInstance("A", "r", geom.Translate(geom.Pt(20*L, 0)), 4, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	clone := e.Snapshot().Cell
	top := &Instance{Name: "top", Cell: clone, Nx: 1, Ny: 1}
	wantLeaf, wantClone := deriveConnectors(leaf), deriveConnectors(clone)
	if leaf.memo.Load() != nil || clone.memo.Load() != nil {
		t.Fatal("a memo was derived before the goroutines start")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 50; it++ {
				if got := leaf.Connectors(); !slices.Equal(got, wantLeaf) {
					t.Errorf("leaf lists %v, want %v", got, wantLeaf)
				}
				if got := clone.Connectors(); !slices.Equal(got, wantClone) {
					t.Errorf("clone lists %v, want %v", got, wantClone)
				}
				for _, cn := range wantClone {
					if ic, err := top.Connector(cn.Name); err != nil || ic.At != cn.At {
						t.Errorf("Connector(%q) = %+v, %v; want at %v", cn.Name, ic, err, cn.At)
					}
				}
				if _, err := clone.Instances[0].Connector("OUT"); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}
