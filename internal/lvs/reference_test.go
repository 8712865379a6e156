package lvs

import (
	"fmt"
	"reflect"
	"testing"

	"riot/internal/cif"
	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/sticks"
	"riot/internal/verify"
)

// wireRows builds a composition holding two abutting rows of a
// wire-only leaf (each row one device-less net) beside an SRCELL, with
// a declared record tying the rows' far ends.
func wireRows(t *testing.T) (*core.Cell, []core.Connection) {
	t.Helper()
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		t.Fatal(err)
	}
	bar, err := core.NewLeafFromSticks(&sticks.Cell{
		Name:   "BAR",
		HasBox: true,
		Box:    geom.R(0, 0, 20, 20),
		Wires:  []sticks.Wire{{Layer: geom.NM, Points: []geom.Point{geom.Pt(0, 10), geom.Pt(20, 10)}}},
		Connectors: []sticks.Connector{
			{Name: "L", At: geom.Pt(0, 10), Layer: geom.NM, Side: geom.SideLeft},
			{Name: "R", At: geom.Pt(20, 10), Layer: geom.NM, Side: geom.SideRight},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddCell(bar); err != nil {
		t.Fatal(err)
	}
	top := core.NewComposition("ROWS")
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEditor(d, top)
	if err != nil {
		t.Fatal(err)
	}
	w, err := e.CreateInstance("BAR", "w", geom.Identity, 3, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.CreateInstance("BAR", "v", geom.MakeTransform(geom.R0, geom.Pt(0, 100*lam)), 3, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateInstance("SRCELL", "s", geom.MakeTransform(geom.R0, geom.Pt(200*lam, 0)), 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	return top, []core.Connection{{From: w, FromConn: "R[2]", To: v, ToConn: "R[2]"}}
}

// TestReferenceDeterministic pins that net numbering is a function of
// the structure alone: two fresh References derive identical netlists
// and leaf counts, including the device-less nets of wire-only
// leaves (numbered after the devices, in block order), with and
// without declared records on top.
func TestReferenceDeterministic(t *testing.T) {
	cell, declared := wireRows(t)
	for _, decl := range [][]core.Connection{nil, declared} {
		var a, b Reference
		na, la, err := a.unnamed(cell, decl)
		if err != nil {
			t.Fatal(err)
		}
		nb, lb, err := b.unnamed(cell, decl)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(na, nb) || la != lb {
			t.Fatalf("declared=%d: two fresh derivations differ:\n%+v\n%+v", len(decl), na, nb)
		}
		// the rows are one net each, joined by the declared record
		labels := core.LabelMap(cell, na.Sites)
		rows := labels["w.L[0]"] == labels["v.L[0]"]
		if rows != (len(decl) > 0) {
			t.Errorf("declared=%d: rows joined = %v", len(decl), rows)
		}
		if labels["w.L[0]"] != labels["w.R[2]"] {
			t.Errorf("declared=%d: row w not stitched into one net: %v", len(decl), labels)
		}
	}
}

// TestReferenceOutsideBoxConnectors: CIF accepts a 94 connector outside
// the symbol's geometry box (the box ignores a point at the symbol
// origin). Arrayed at a pitch where each copy's outside connector
// lands on the next copy's edge connector while the copies' boxes stay
// apart, the zero-width wire under the connector joins the copies in
// the layout, and the coincident connectors declare that join: the
// reference must pair the copies by their connector extent, not just
// their boxes, and the verdict must be the flat comparison's — clean.
func TestReferenceOutsideBoxConnectors(t *testing.T) {
	f, err := cif.ParseString("DS 1; 9 LEAF; L NM; B 40 20 -30 0; W 0 0 0 -10 0; 94 P 0 0 NM 2; 94 Q -50 0 NM 2; DF; E")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := core.NewLeafFromCIF(f, f.SymbolByID(1))
	if err != nil {
		t.Fatal(err)
	}
	if leaf.BBox().Contains(geom.Pt(0, 0)) {
		t.Fatalf("connector P lies inside the leaf box %v; the test needs it outside", leaf.BBox())
	}
	d := core.NewDesign()
	if err := d.AddCell(leaf); err != nil {
		t.Fatal(err)
	}
	top := core.NewComposition("OUTSIDE")
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEditor(d, top)
	if err != nil {
		t.Fatal(err)
	}
	in, err := e.CreateInstance("LEAF", "a", geom.Identity, 3, 1, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in.CopyTransform(0, 0).ApplyRect(leaf.BBox()).Touches(in.CopyTransform(1, 0).ApplyRect(leaf.BBox())) {
		t.Fatal("copy boxes touch; the test needs them apart")
	}

	want, err := CheckCellFlat(top)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Clean {
		t.Fatalf("flat comparison not clean: %v", want.Mismatches)
	}
	got, err := scratchCell(top)
	if err != nil {
		t.Fatal(err)
	}
	var inc Incremental
	warm, err := inc.CheckCell(top, &verify.Verifier{Hier: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Result{"scratch": got, "incremental": warm} {
		if res.Clean != want.Clean || !reflect.DeepEqual(res.Mismatches, want.Mismatches) {
			t.Errorf("%s verdict differs from the flat comparison: %v vs %v", name, res.Mismatches, want.Mismatches)
		}
	}
	ref, err := new(Reference).Netlist(top, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.NetCount != 1 {
		t.Errorf("reference keeps %d nets; the coincident connectors join the copies into one", ref.NetCount)
	}
}

// arrayCase builds one design of the array stitch differential: place
// puts an array instance, or with explode its copies as 1x1 instances
// at the array's copy transforms, in walk order.
type arrayCase struct {
	name  string
	build func(t *testing.T, d *core.Design, place func(cell, name string, tr geom.Transform, nx, ny, sx, sy int))
}

// outsideLeaf adds TestReferenceOutsideBoxConnectors' leaf: connector P
// lies outside its box, so neighbouring copies' port boxes overlap.
func outsideLeaf(t *testing.T, d *core.Design) {
	t.Helper()
	f, err := cif.ParseString("DS 1; 9 LEAF; L NM; B 40 20 -30 0; W 0 0 0 -10 0; 94 P 0 0 NM 2; 94 Q -50 0 NM 2; DF; E")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := core.NewLeafFromCIF(f, f.SymbolByID(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddCell(leaf); err != nil {
		t.Fatal(err)
	}
}

func arrayCases() []arrayCase {
	var cases []arrayCase
	for o := geom.R0; o <= geom.MXR270; o++ {
		for _, sign := range []int{1, -1} {
			cases = append(cases, arrayCase{fmt.Sprintf("srcell 4x3 %s pitch%+d", o, sign),
				func(t *testing.T, d *core.Design, place func(string, string, geom.Transform, int, int, int, int)) {
					place("SRCELL", "a", geom.MakeTransform(o, geom.Pt(0, 0)), 4, 3, sign*20*lam, sign*24*lam)
				}})
		}
	}
	cases = append(cases,
		arrayCase{"srcell 1x6", func(t *testing.T, d *core.Design, place func(string, string, geom.Transform, int, int, int, int)) {
			place("SRCELL", "a", geom.Identity, 1, 6, 0, 24*lam)
		}},
		arrayCase{"srcell 6x1", func(t *testing.T, d *core.Design, place func(string, string, geom.Transform, int, int, int, int)) {
			place("SRCELL", "a", geom.Identity, 6, 1, 20*lam, 0)
		}},
		arrayCase{"arrays beside instances", func(t *testing.T, d *core.Design, place func(string, string, geom.Transform, int, int, int, int)) {
			place("SRCELL", "a", geom.Identity, 3, 3, 20*lam, 24*lam)
			place("SRCELL", "s", geom.MakeTransform(geom.R0, geom.Pt(60*lam, 0)), 1, 1, 0, 0)
			place("SRCELL", "b", geom.MakeTransform(geom.R0, geom.Pt(0, 72*lam)), 2, 3, 20*lam, 24*lam)
		}},
		arrayCase{"array of a composition", func(t *testing.T, d *core.Design, place func(string, string, geom.Transform, int, int, int, int)) {
			row := core.NewComposition("ROW")
			if err := d.AddCell(row); err != nil {
				t.Fatal(err)
			}
			sr, _ := d.Cell("SRCELL")
			in := core.NewInstance("r", sr, geom.Identity)
			in.Nx, in.Sx = 3, 20*lam
			row.Instances = append(row.Instances, in)
			place("ROW", "a", geom.MakeTransform(geom.R90, geom.Pt(0, 0)), 2, 3, 60*lam, 24*lam)
		}},
		arrayCase{"connectors outside the box", func(t *testing.T, d *core.Design, place func(string, string, geom.Transform, int, int, int, int)) {
			outsideLeaf(t, d)
			place("LEAF", "a", geom.Identity, 3, 1, 50, 0)
			place("LEAF", "b", geom.MakeTransform(geom.R90, geom.Pt(0, 100)), 4, 2, 50, 40)
		}},
	)
	return cases
}

// TestReferenceArrayMatchesCopies is the array stitch differential: an
// ARRAY instance, whose copies pair by lattice offset, and the same
// copies placed as 1x1 instances, which pair through the copy index,
// stitch to identical devices and net counts, and both designs get the
// flat comparison's verdict, as does the certified check of the array.
func TestReferenceArrayMatchesCopies(t *testing.T) {
	for _, tc := range arrayCases() {
		t.Run(tc.name, func(t *testing.T) {
			var nl [2]*Netlist
			var flat [2]*Result
			for k, explode := range []bool{false, true} {
				d := core.NewDesign()
				if err := lib.Install(d); err != nil {
					t.Fatal(err)
				}
				top := core.NewComposition("TOP")
				if err := d.AddCell(top); err != nil {
					t.Fatal(err)
				}
				ed, err := core.NewEditor(d, top)
				if err != nil {
					t.Fatal(err)
				}
				tc.build(t, d, func(cell, name string, tr geom.Transform, nx, ny, sx, sy int) {
					in, err := ed.CreateInstance(cell, name, tr, nx, ny, sx, sy)
					if err != nil {
						t.Fatal(err)
					}
					if !explode {
						return
					}
					if err := ed.DeleteInstance(in); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < nx; i++ {
						for j := 0; j < ny; j++ {
							if _, err := ed.CreateInstance(cell, fmt.Sprintf("%s_%d_%d", name, i, j), in.CopyTransform(i, j), 1, 1, 0, 0); err != nil {
								t.Fatal(err)
							}
						}
					}
				})
				if nl[k], _, err = new(Reference).unnamed(top, nil); err != nil {
					t.Fatal(err)
				}
				if flat[k], err = CheckEditorFlat(ed); err != nil {
					t.Fatal(err)
				}
				if !explode {
					var inc Incremental
					res, err := inc.Check(ed, &verify.Verifier{Hier: true})
					if err != nil {
						t.Fatal(err)
					}
					if res.Clean != flat[k].Clean {
						t.Errorf("certified verdict clean=%v, flat clean=%v", res.Clean, flat[k].Clean)
					}
				}
			}
			if nl[0].NetCount != nl[1].NetCount || !reflect.DeepEqual(nl[0].Devices, nl[1].Devices) {
				t.Fatalf("array stitches %d nets, its copies %d (devices equal: %v)",
					nl[0].NetCount, nl[1].NetCount, reflect.DeepEqual(nl[0].Devices, nl[1].Devices))
			}
			if !flat[0].Clean || !flat[1].Clean {
				t.Fatalf("flat verdicts: array clean=%v %v, copies clean=%v %v", flat[0].Clean, flat[0].Mismatches, flat[1].Clean, flat[1].Mismatches)
			}
		})
	}
}

// TestReferenceArrayBuildsNoIndex pins the sign-off shape: a single
// ARRAY instance whose connectors all bind stitches by lattice
// arithmetic and builds no copy index, while a second instance beside
// it makes the stitch index the copies for the pairs across them.
func TestReferenceArrayBuildsNoIndex(t *testing.T) {
	ed := arrayEditor(t, 16)
	var rf Reference
	if _, _, err := rf.unnamed(ed.Cell, nil); err != nil {
		t.Fatal(err)
	}
	if e := rf.memo[ed.Cell]; e.ix != nil {
		t.Fatal("a single-array stitch built a copy index")
	}
	if _, err := ed.CreateInstance("SRCELL", "s", geom.MakeTransform(geom.R0, geom.Pt(320*lam, 0)), 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rf.unnamed(ed.Cell, nil); err != nil {
		t.Fatal(err)
	}
	if e := rf.memo[ed.Cell]; e.ix == nil {
		t.Fatal("a two-instance stitch found its cross-instance pairs without the copy index")
	}
}

// TestReferenceNarrowSeams: a seam trusts material as deep into each
// box as its own geometry reaches, which can be all of a narrow leaf.
// Each design joins its two labelled ends across such a seam in the
// layout; it must check clean flat, certify every occurrence, and
// carry the two ends on one reference net.
func TestReferenceNarrowSeams(t *testing.T) {
	leaf := func(t *testing.T, d *core.Design, src string) *core.Cell {
		t.Helper()
		f, err := cif.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.NewLeafFromCIF(f, f.SymbolByID(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.AddCell(c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	cases := []struct {
		name  string
		build func(t *testing.T, d *core.Design, place func(cell, name string, at geom.Point, nx, ny, sx, sy int))
		ends  [2]string
	}{
		// a 40x20 cm leaf stacked at its own height: its metal meets the
		// next copy's across a seam that trusts all of the leaf
		{"40x20cm leaf arrayed 1x2", func(t *testing.T, d *core.Design, place func(string, string, geom.Point, int, int, int, int)) {
			outsideLeaf(t, d)
			place("LEAF", "a", geom.Pt(0, 0), 1, 2, 0, 20)
		}, [2]string{"a.Q[0]", "a.Q[1]"}},
		// a 4-lambda metal square tiled 2x2 at abutting pitch
		{"4 lambda square arrayed 2x2", func(t *testing.T, d *core.Design, place func(string, string, geom.Point, int, int, int, int)) {
			leaf(t, d, fmt.Sprintf("DS 1; 9 SQ; L NM; B %d %d %d %d; 94 P 0 %d NM; DF; E", 4*lam, 4*lam, 2*lam, 2*lam, 2*lam))
			place("SQ", "a", geom.Pt(0, 0), 2, 2, 4*lam, 4*lam)
		}, [2]string{"a.P[0,0]", "a.P[0,1]"}},
		// two 10x30 lambda leaves, a metal bar across the middle third
		// of each, abutted into a 20-lambda-wide composition that the
		// parent places twice, overlapping by 8 lambda: that seam
		// trusts 10 lambda of each copy, all of a leaf's width
		{"composition overlapped 8 lambda", func(t *testing.T, d *core.Design, place func(string, string, geom.Point, int, int, int, int)) {
			bar := leaf(t, d, fmt.Sprintf("DS 1; 9 BAR; L NM; B %d %d %d %d; 94 P 0 %d NM; 94 B %d 0 NM; 94 T %d %d NM; DF; E",
				10*lam, 10*lam, 5*lam, 15*lam, 15*lam, 5*lam, 5*lam, 30*lam))
			if b := bar.BBox(); b != geom.R(0, 0, 10*lam, 30*lam) {
				t.Fatalf("BAR box %v; the test needs 10x30 lambda", b)
			}
			pair := core.NewComposition("PAIR")
			if err := d.AddCell(pair); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 2; k++ {
				pair.Instances = append(pair.Instances, core.NewInstance(fmt.Sprintf("l%d", k), bar, geom.MakeTransform(geom.R0, geom.Pt(10*lam*k, 0))))
			}
			place("PAIR", "c0", geom.Pt(0, 0), 1, 1, 0, 0)
			place("PAIR", "c1", geom.Pt(12*lam, 0), 1, 1, 0, 0)
		}, [2]string{"c0.l0.P", "c1.l0.P"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := core.NewDesign()
			top := core.NewComposition("TOP")
			if err := d.AddCell(top); err != nil {
				t.Fatal(err)
			}
			ed, err := core.NewEditor(d, top)
			if err != nil {
				t.Fatal(err)
			}
			tc.build(t, d, func(cell, name string, at geom.Point, nx, ny, sx, sy int) {
				if _, err := ed.CreateInstance(cell, name, geom.MakeTransform(geom.R0, at), nx, ny, sx, sy); err != nil {
					t.Fatal(err)
				}
			})
			flat, err := CheckEditorFlat(ed)
			if err != nil {
				t.Fatal(err)
			}
			if !flat.Clean {
				t.Errorf("flat comparison not clean: %v", flat.Mismatches)
			}
			res, err := new(Incremental).Check(ed, &verify.Verifier{Hier: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Clean || res.Cert.Certified != res.Cert.Occurrences || res.Cert.Fallback {
				t.Errorf("certified check: clean=%v, certified %d of %d occurrences (fallback %v)",
					res.Clean, res.Cert.Certified, res.Cert.Occurrences, res.Cert.Fallback)
			}
			ref, err := new(Reference).Netlist(top, nil)
			if err != nil {
				t.Fatal(err)
			}
			a, okA := ref.Labels[tc.ends[0]]
			b, okB := ref.Labels[tc.ends[1]]
			if !okA || !okB || a != b {
				t.Errorf("reference nets of %s and %s: %d (%v) and %d (%v); the layout joins them", tc.ends[0], tc.ends[1], a, okA, b, okB)
			}
		})
	}
}

// TestReferenceExtractsLeafOnce: however deep a seam reads into a
// leaf, one standalone extraction serves it for the whole session.
// Copies of an 8x8 grid are pushed 2 lambda into their neighbours,
// then 2 lambda deeper; each netlist equals a fresh Reference's, and
// SRCELL is extracted once.
func TestReferenceExtractsLeafOnce(t *testing.T) {
	ed := gridEditor(t, 8)
	var rf Reference
	for step := 0; step <= 2; step++ {
		if step > 0 {
			ed.MoveInstance(ed.Cell.Instances[27], geom.Pt(-2*lam, 0))
			ed.MoveInstance(ed.Cell.Instances[44], geom.Pt(0, -2*lam))
		}
		got, _, err := rf.unnamed(ed.Cell, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := new(Reference).unnamed(ed.Cell, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("push %d: the session's netlist (%d nets) differs from a fresh derivation's (%d nets)", step, got.NetCount, want.NetCount)
		}
		if n := rf.Stats().LeavesExtracted; n != 1 {
			t.Errorf("push %d: SRCELL extracted %d times, want once per session", step, n)
		}
	}
}
