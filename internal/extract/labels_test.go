package extract

import (
	"fmt"
	"reflect"
	"testing"

	"riot/internal/core"
	"riot/internal/filter"
	"riot/internal/flatten"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/rules"
	"riot/internal/sticks"
)

// namedSite is one label of flattenPassNames: a name at a point.
type namedSite struct {
	name  string
	at    geom.Point
	layer geom.Layer
}

// flattenPassNames resolves c's labels the way flatten's label pass
// did before label tables, written out here so the name map core
// derives from a table is checked against an enumeration of its own:
// the cell's connectors (a composition's instance connectors on its
// box edge, deduplicated by name, then its extras not yet named), then
// every instance's visible connectors in grid order, each resolved at
// its point on its layer; a name's last resolution wins.
func flattenPassNames(t *testing.T, c *core.Cell) map[string]int {
	t.Helper()
	instSites := func(in *core.Instance) []namedSite {
		var out []namedSite
		arr := in.Nx > 1 || in.Ny > 1
		for i := 0; i < in.Nx; i++ {
			for j := 0; j < in.Ny; j++ {
				for _, cn := range in.Cell.Connectors() {
					visible := !arr
					switch cn.Side {
					case geom.SideLeft:
						visible = visible || i == 0
					case geom.SideRight:
						visible = visible || i == in.Nx-1
					case geom.SideBottom:
						visible = visible || j == 0
					case geom.SideTop:
						visible = visible || j == in.Ny-1
					}
					if !visible {
						continue
					}
					name := in.Name + "." + cn.Name
					switch {
					case !arr:
					case in.Ny == 1:
						name += fmt.Sprintf("[%d]", i)
					case in.Nx == 1:
						name += fmt.Sprintf("[%d]", j)
					default:
						name += fmt.Sprintf("[%d,%d]", i, j)
					}
					out = append(out, namedSite{name, in.CopyTransform(i, j).Apply(cn.At), cn.Layer})
				}
			}
		}
		return out
	}
	var sites []namedSite
	if c.Kind != core.Composition {
		for _, cn := range c.Connectors() {
			sites = append(sites, namedSite{cn.Name, cn.At, cn.Layer})
		}
	} else {
		box := c.BBox()
		seen := map[string]bool{}
		for _, in := range c.Instances {
			for _, s := range instSites(in) {
				if geom.SideOf(box, s.at) != geom.SideNone && !seen[s.name] {
					seen[s.name] = true
					sites = append(sites, s)
				}
			}
		}
		for _, cn := range c.ExtraConnectors {
			if !seen[cn.Name] {
				seen[cn.Name] = true
				sites = append(sites, namedSite{cn.Name, cn.At, cn.Layer})
			}
		}
		for _, in := range c.Instances {
			sites = append(sites, instSites(in)...)
		}
	}
	fr, err := flatten.Cell(c)
	if err != nil {
		t.Fatal(err)
	}
	fr.Labels = nil
	for _, s := range sites {
		fr.Labels = append(fr.Labels, flatten.Label{At: s.at, Layer: s.layer})
	}
	ckt, err := Solve(fr)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]int{}
	for i, n := range ckt.Sites {
		if n >= 0 {
			m[sites[i].name] = int(n)
		}
	}
	return m
}

// TestLabelMapMatchesFlattenPass is the naming differential: for every
// case, the name map core derives from the extracted label table equals
// flattenPassNames. The cases cover leaves, both figure-10 chips,
// rotated and mirrored arrays, a nested composition, an extra named
// like an instance connector the composition does not export (and one
// like a connector it does), and two instances of one name.
func TestLabelMapMatchesFlattenPass(t *testing.T) {
	lam := rules.Lambda
	type tc struct {
		name string
		cell *core.Cell
	}
	var cases []tc
	cells, err := lib.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		cases = append(cases, tc{"leaf " + c.Name, c})
	}
	for _, v := range []filter.Variant{filter.Routed, filter.Stretched} {
		_, chip, _, err := filter.BuildChip(v)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{"chip " + v.String(), chip})
	}

	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		t.Fatal(err)
	}
	sr, _ := d.Cell("SRCELL")
	nand, _ := d.Cell("NAND")
	arrays := core.NewComposition("ARRAYS")
	for k, o := range []geom.Orient{geom.R90, geom.MX} {
		in := core.NewInstance(fmt.Sprintf("r%d", k), sr, geom.MakeTransform(o, geom.Pt(200*lam*k, 0)))
		in.Nx, in.Ny, in.Sx, in.Sy = 3, 4, 20*lam, 24*lam
		arrays.Instances = append(arrays.Instances, in)
	}
	cases = append(cases, tc{"R90 and MX arrays", arrays})

	row := core.NewComposition("ROW")
	a := core.NewInstance("a", sr, geom.Identity)
	a.Nx, a.Sx = 3, 20*lam
	row.Instances = append(row.Instances, a, core.NewInstance("n", nand, geom.MakeTransform(geom.R0, geom.Pt(60*lam, 0))))
	nested := core.NewComposition("NESTED")
	nested.Instances = append(nested.Instances,
		core.NewInstance("r0", row, geom.Identity),
		core.NewInstance("r1", row, geom.MakeTransform(geom.R90, geom.Pt(0, 200*lam))),
		core.NewInstance("s", sr, geom.MakeTransform(geom.R0, geom.Pt(0, 24*lam))))
	cases = append(cases, tc{"nested composition", nested})

	// STUB's UP sits on its top edge over no poly, so it never resolves
	stub, err := core.NewLeafFromSticks(&sticks.Cell{
		Name: "STUB", HasBox: true, Box: geom.R(0, 0, 10, 10),
		Wires: []sticks.Wire{{Layer: geom.NM, Width: 4, Points: []geom.Point{geom.Pt(0, 5), geom.Pt(10, 5)}}},
		Connectors: []sticks.Connector{
			{Name: "L", At: geom.Pt(0, 5), Layer: geom.NM, Width: 4, Side: geom.SideLeft},
			{Name: "UP", At: geom.Pt(5, 10), Layer: geom.NP, Width: 2, Side: geom.SideTop},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// a.OUT faces b, so its extra is kept and the instance's later
	// a.OUT wins; k.UP lies on the box edge, so its extra is dropped and
	// the name stays unresolved; the second X repeats a kept extra
	extra := core.NewComposition("EXTRA")
	extra.Instances = append(extra.Instances,
		core.NewInstance("a", sr, geom.Identity),
		core.NewInstance("b", sr, geom.MakeTransform(geom.R0, geom.Pt(20*lam, 0))),
		core.NewInstance("k", stub, geom.MakeTransform(geom.R0, geom.Pt(40*lam, 14*lam))))
	extra.ExtraConnectors = []core.Connector{
		{Name: "a.OUT", At: geom.Pt(0, 2*lam), Layer: geom.NM},
		{Name: "k.UP", At: geom.Pt(0, 2*lam), Layer: geom.NM},
		{Name: "X", At: geom.Pt(0, 2*lam), Layer: geom.NM},
		{Name: "X", At: geom.Pt(0, 22*lam), Layer: geom.NM},
	}
	cases = append(cases, tc{"extras named like instance connectors", extra})

	dup := core.NewComposition("DUP")
	for i, name := range []string{"a", "a", "b"} {
		dup.Instances = append(dup.Instances, core.NewInstance(name, sr, geom.MakeTransform(geom.R0, geom.Pt(40*lam*i, 0))))
	}
	cases = append(cases, tc{"duplicate instance names", dup})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ckt, err := FromCell(c.cell)
			if err != nil {
				t.Fatal(err)
			}
			got, want := ckt.NetOf(c.cell), flattenPassNames(t, c.cell)
			if len(want) == 0 {
				t.Fatal("no label resolved; the case proves nothing")
			}
			if !reflect.DeepEqual(got, want) {
				for name, n := range want {
					if g, ok := got[name]; !ok || g != n {
						t.Errorf("label %s: table names %d (present %v), flatten pass %d", name, g, ok, n)
					}
				}
				for name := range got {
					if _, ok := want[name]; !ok {
						t.Errorf("label %s: named from the table, absent from the flatten pass", name)
					}
				}
			}
		})
	}
}
