package lvs

import (
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"riot/internal/cif"
	"riot/internal/core"
	"riot/internal/extract"
	"riot/internal/geom"
	"riot/internal/hier"
	"riot/internal/lib"
	"riot/internal/obs"
	"riot/internal/sticks"
	"riot/internal/verify"
)

// templateArray is one single-ARRAY design of the template-witness
// differential.
type templateArray struct {
	name string
	top  *core.Cell
}

// templateArrays lists the differential's designs: every library leaf
// with devices or without (SRCELL, NAND, OR4, PIPEM, PIPEP) in all
// eight orientations, at 14x14, 20x15 and 16x16, at its box pitch
// with no gap, 2 lambda apart on x, 3 lambda apart on y, and
// overlapping 1 lambda on x or on y, at both pitch signs; then the
// NCUT leaf (a context join, a connector with no layer) and FLOAT (a
// net no device touches) in every orientation at both signs, at
// pitches the fast path takes. (The outside-box-connector leaf is
// narrower than its layer's minimum width, so the fast path takes none
// of its arrays.)
func templateArrays(t *testing.T) []templateArray {
	t.Helper()
	cells, err := lib.Cells()
	if err != nil {
		t.Fatal(err)
	}
	array := func(c *core.Cell, o geom.Orient, nx, ny, sx, sy int) *core.Cell {
		top := core.NewComposition("TOP")
		in := core.NewInstance("a", c, geom.MakeTransform(o, geom.Pt(0, 0)))
		in.Nx, in.Ny, in.Sx, in.Sy = nx, ny, sx, sy
		top.Instances = []*core.Instance{in}
		return top
	}
	var out []templateArray
	for _, c := range cells[:5] {
		b := c.BBox()
		for o := geom.R0; o <= geom.MXR270; o++ {
			for _, dims := range [][2]int{{14, 14}, {20, 15}, {16, 16}} {
				for _, gap := range [][2]int{{0, 0}, {2 * lam, 0}, {0, 3 * lam}, {-lam, 0}, {0, -lam}} {
					for _, sign := range []int{1, -1} {
						sx, sy := sign*(b.W()+gap[0]), sign*(b.H()+gap[1])
						out = append(out, templateArray{
							fmt.Sprintf("%s %s %dx%d gap%v pitch%+d", c.Name, o, dims[0], dims[1], gap, sign),
							array(c, o, dims[0], dims[1], sx, sy)})
					}
				}
			}
		}
	}
	for _, leaf := range []struct {
		cell   *core.Cell
		sx, sy int
	}{{templateNCUT(t), 20 * lam, 20 * lam}, {floatLeaf(t), 20 * lam, 24 * lam}} {
		for o := geom.R0; o <= geom.MXR270; o++ {
			for _, sign := range []int{1, -1} {
				out = append(out, templateArray{fmt.Sprintf("%s %s 14x16 pitch%+d", leaf.cell.Name, o, sign),
					array(leaf.cell, o, 14, 16, sign*leaf.sx, sign*leaf.sy)})
			}
		}
	}
	return out
}

// floatLeaf is SRCELL with a floating metal square: a net that no
// device touches, so the leaf binding covers every net but one.
func floatLeaf(t *testing.T) *core.Cell {
	t.Helper()
	sc := lib.SRCell()
	sc.Name = "FLOAT"
	sc.Wires = append(sc.Wires, sticks.Wire{Layer: geom.NM, Width: 4, Points: []geom.Point{{X: 3, Y: 10}, {X: 5, Y: 10}}})
	leaf, err := core.NewLeafFromSticks(sc)
	if err != nil {
		t.Fatal(err)
	}
	return leaf
}

// templateNCUT is the hier lattice tests' NCUT leaf: a metal plate and
// a poly square joined by a cut at their centre (a contact join that
// needs placement context), a poly strip into the right neighbour, and
// connector Z with no layer.
func templateNCUT(t *testing.T) *core.Cell {
	t.Helper()
	f, err := cif.ParseString("DS 1; 9 NCUT; L NM; B 1500 1500 750 750; L NP; B 1000 1000 750 750; " +
		"L NC; B 500 500 750 750; L NP; B 6500 500 3250 3750; 94 M 0 750 NM; 94 S 6500 3750 NP; DF; E")
	if err != nil {
		t.Fatal(err)
	}
	sym := f.SymbolByID(1)
	sym.Elements = append(sym.Elements, cif.Connector{Name: "Z", At: geom.Pt(0, 2000)})
	leaf, err := core.NewLeafFromCIF(f, sym)
	if err != nil {
		t.Fatal(err)
	}
	return leaf
}

// TestTemplateWitnessMatchesWalk is the template witness's
// differential: over every design of templateArrays, the check of a
// fresh Incremental over the verifier's report equals, Result for
// Result, the stitched reference's walk-order path (unnamed, then the
// walk or the flat comparison), and its verdict equals the flat
// comparison's. The witness settles exactly the fast-path arrays of
// the leaves whose every net carries a device (SRCELL, NAND, OR4), at
// least 360 of them, and nothing else. The designs of each leaf and
// orientation run as one parallel subtest.
func TestTemplateWitnessMatchesWalk(t *testing.T) {
	groups := map[string][]templateArray{}
	var order []string
	for _, tc := range templateArrays(t) {
		in := tc.top.Instances[0]
		g := fmt.Sprintf("%s %s", in.Cell.Name, in.Tr.O)
		if groups[g] == nil {
			order = append(order, g)
		}
		groups[g] = append(groups[g], tc)
	}
	var settled, fast atomic.Int32
	t.Run("arrays", func(t *testing.T) {
		for _, g := range order {
			g := g
			t.Run(g, func(t *testing.T) {
				t.Parallel()
				for _, tc := range groups[g] {
					name := tc.top.Instances[0].Cell.Name
					onFast, byTemplate := templateDesign(t, tc)
					if (name == "NCUT" || name == "FLOAT") && !onFast {
						t.Errorf("%s: not on the fast path", tc.name)
					}
					eligible := onFast && (name == "SRCELL" || name == "NAND" || name == "OR4")
					if byTemplate != eligible {
						t.Errorf("%s: settled by template = %v, want %v (fast path %v)", tc.name, byTemplate, eligible, onFast)
					}
					if onFast {
						fast.Add(1)
					}
					if byTemplate {
						settled.Add(1)
					}
				}
			})
		}
	})
	if settled.Load() < 360 {
		t.Errorf("the template witness settled %d designs (%d on the fast path), want at least 360", settled.Load(), fast.Load())
	}
}

// templateDesign checks one design of the differential and reports
// whether the fast path answered its verify and whether the template
// witness settled its check.
func templateDesign(t *testing.T, tc templateArray) (onFast, byTemplate bool) {
	t.Helper()
	v := &verify.Verifier{Hier: true}
	v.SetLog(obs.Discard)
	rep, err := v.VerifyCell(tc.top)
	if err != nil {
		t.Fatalf("%s: verify: %v", tc.name, err)
	}
	inc := &Incremental{}
	got, err := inc.compare(tc.top, nil, rep)
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	var rf Reference
	ref, leaves, err := rf.unnamed(tc.top, nil)
	if err != nil {
		t.Fatalf("%s: reference: %v", tc.name, err)
	}
	if want := rf.compare(tc.top, ref, leaves, rep.Circuit); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Result differs from the walk path's:\ngot:  %+v\nwant: %+v", tc.name, got, want)
	}
	flat, err := CheckCellFlat(tc.top)
	if err != nil {
		t.Fatalf("%s: flat: %v", tc.name, err)
	}
	if got.Clean != flat.Clean || !reflect.DeepEqual(got.Mismatches, flat.Mismatches) {
		t.Fatalf("%s: verdict differs from the flat comparison:\ngot:  %v %v\nflat: %v %v", tc.name, got.Clean, got.Mismatches, flat.Clean, flat.Mismatches)
	}
	st := inc.Ref.Stats()
	byTemplate = st.TemplateCertified == 1
	in := tc.top.Instances[0]
	if byTemplate && (st.TemplateHits != 0 || st.TemplatesBuilt != len(in.PairOffsets(portBox(in.Cell), 0))) {
		t.Errorf("%s: the template witness replayed copy pairs: %+v", tc.name, st)
	}
	return rep.Lattice() != nil, byTemplate
}

// TestTemplateWitnessMutations: each mutation of one fact the template
// witness reads makes it decline, and the check that then runs (the
// stitched reference through the walk, else the flat comparison)
// returns the flat comparison's verdict for the layout as mutated.
// Mutated: one union dropped from either side's offset templates, two
// devices of differing kind swapped in the certificate and in every
// copy of the circuit, or only their kinds swapped, a union added at
// an offset only the lattice lists, one port's net moved to another
// net in the lattice and in every label site it fills, and one
// deferred join added to the certificate.
func TestTemplateWitnessMutations(t *testing.T) {
	cells, err := lib.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells[:3] {
		b := c.BBox()
		top := core.NewComposition("TOP")
		in := core.NewInstance("a", c, geom.Identity)
		in.Nx, in.Ny, in.Sx, in.Sy = 16, 16, b.W(), b.H()
		top.Instances = []*core.Instance{in}
		rep, err := (&verify.Verifier{Hier: true}).VerifyCell(top)
		if err != nil {
			t.Fatal(err)
		}
		lat, ckt := rep.Lattice(), rep.Circuit
		if lat == nil {
			t.Fatalf("%s: no fast-path lattice", c.Name)
		}
		var base Reference
		ar := base.arrayTemplates(in)
		if base.templateWitness(ar, lat, ckt) == nil {
			t.Fatalf("%s: the unmutated array does not settle by template", c.Name)
		}
		x, nd := lat.Cert.X, len(lat.Cert.X.Devices)

		// the two devices to swap, of differing kind
		di, dj := 0, slices.IndexFunc(x.Devices, func(d extract.CertDevice) bool { return d.Kind != x.Devices[0].Kind })
		// the port to move and the net it moves to; classOf reads a
		// certificate net's composed net in copy u off a device pin
		port := slices.IndexFunc(lat.PortNet, func(n int32) bool { return n >= 0 })
		moved := (lat.PortNet[port] + 1) % int32(x.NetCount)
		classOf := func(u int, net int32) int {
			for k, d := range x.Devices {
				tr := ckt.Transistors[u*nd+k]
				switch net {
				case d.GateNet:
					return tr.Gate
				case d.ANet:
					return tr.A
				case d.BNet:
					return tr.B
				}
			}
			t.Fatalf("%s: net %d carries no device", c.Name, net)
			return -1
		}
		withX := func(mx *extract.CellCert) *hier.Lattice {
			ml := *lat
			ct := *lat.Cert
			ct.X = mx
			ml.Cert = &ct
			return &ml
		}

		for _, m := range []struct {
			what string
			// mutate returns the mutated sides; a nil one is unmutated
			mutate func() (*arrayRef, *hier.Lattice, *extract.Circuit)
			// clean is the flat verdict on the mutated layout
			clean bool
		}{
			{"drop a layout union", func() (*arrayRef, *hier.Lattice, *extract.Circuit) {
				ml := *lat
				ml.Unions = slices.Clone(lat.Unions)
				k := slices.IndexFunc(ml.Unions, func(us [][2]int32) bool { return len(us) > 0 })
				ml.Unions[k] = ml.Unions[k][1:]
				return nil, &ml, nil
			}, true},
			{"drop a reference union", func() (*arrayRef, *hier.Lattice, *extract.Circuit) {
				ma := *ar
				ma.tmpl = slices.Clone(ar.tmpl)
				k := slices.IndexFunc(ma.tmpl, func(us [][2]int32) bool { return len(us) > 0 })
				ma.tmpl[k] = ma.tmpl[k][1:]
				return &ma, nil, nil
			}, true},
			{"swap two devices", func() (*arrayRef, *hier.Lattice, *extract.Circuit) {
				mx := *x
				mx.Devices = slices.Clone(x.Devices)
				mx.Devices[di], mx.Devices[dj] = mx.Devices[dj], mx.Devices[di]
				mc := *ckt
				mc.Transistors = slices.Clone(ckt.Transistors)
				for u := 0; u < in.Nx*in.Ny; u++ {
					mc.Transistors[u*nd+di], mc.Transistors[u*nd+dj] = mc.Transistors[u*nd+dj], mc.Transistors[u*nd+di]
				}
				return nil, withX(&mx), &mc
			}, true},
			{"swap two devices' kinds", func() (*arrayRef, *hier.Lattice, *extract.Circuit) {
				mx := *x
				mx.Devices = slices.Clone(x.Devices)
				mx.Devices[di].Kind, mx.Devices[dj].Kind = mx.Devices[dj].Kind, mx.Devices[di].Kind
				mc := *ckt
				mc.Transistors = slices.Clone(ckt.Transistors)
				for u := 0; u < in.Nx*in.Ny; u++ {
					a, b := &mc.Transistors[u*nd+di], &mc.Transistors[u*nd+dj]
					a.Kind, b.Kind = b.Kind, a.Kind
				}
				return nil, withX(&mx), &mc
			}, false},
			{"add a union at an offset only the lattice pairs", func() (*arrayRef, *hier.Lattice, *extract.Circuit) {
				ml := *lat
				ml.Offsets = append(slices.Clone(lat.Offsets), core.Offset{DI: 2})
				ml.Unions = append(slices.Clone(lat.Unions), [][2]int32{{0, 0}})
				return nil, &ml, nil
			}, true},
			{"move a port net", func() (*arrayRef, *hier.Lattice, *extract.Circuit) {
				ml := *lat
				ml.PortNet = slices.Clone(lat.PortNet)
				ml.PortNet[port] = moved
				mc := *ckt
				mc.Sites = slices.Clone(ckt.Sites)
				s := 0
				in.Sites(ar.leaf.conns, func(i, j, k int) {
					if k == port {
						mc.Sites[s] = int32(classOf(i*in.Ny+j, moved))
					}
					s++
				})
				return nil, &ml, &mc
			}, false},
			{"add a join", func() (*arrayRef, *hier.Lattice, *extract.Circuit) {
				mx := *x
				mx.Joins = []extract.CertJoin{{Layers: [2]geom.Layer{geom.NM, geom.NP}}}
				return nil, withX(&mx), nil
			}, true},
		} {
			ma, ml, mc := m.mutate()
			if ma == nil {
				ma = ar
			}
			if ml == nil {
				ml = lat
			}
			if mc == nil {
				mc = ckt
			}
			what := c.Name + ": " + m.what
			inc := &Incremental{}
			// a layout mutation goes through the eligibility test and the
			// checks; the reference is derived, so its mutations go
			// through the checks alone
			var settled *Result
			if ma == ar {
				settled = inc.arrayWitness(top, nil, ml, mc)
			} else {
				settled = inc.Ref.templateWitness(ma, ml, mc)
			}
			if settled != nil {
				t.Fatalf("%s: settled by template", what)
			}
			ref, leaves, err := inc.Ref.unnamed(top, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := inc.Ref.compare(top, ref, leaves, mc)
			want := flatVerdict(top, ref, mc)
			if got.Clean != want.Clean || !reflect.DeepEqual(got.Mismatches, want.Mismatches) {
				t.Errorf("%s: verdict differs from the flat comparison:\ngot:  %v %v\nwant: %+v", what, got.Clean, got.Mismatches, want)
			}
			if got.Clean != m.clean {
				t.Errorf("%s: clean = %v, want %v", what, got.Clean, m.clean)
			}
		}
	}
}

// TestTemplateWitnessDeclines: a fast-path array whose check is not
// eligible, and an array under the fast path's smallest side, take the
// stitch and the walk, with the flat comparison's verdict. Not
// eligible: a declared record (here one that ties power to ground,
// which the layout keeps apart) and an extra connector on the top.
func TestTemplateWitnessDeclines(t *testing.T) {
	for _, tc := range []struct {
		what string
		n    int
		edit func(e *core.Editor) error
		fast bool
		// clean is the flat verdict
		clean bool
	}{
		{"declared record", 16, func(e *core.Editor) error {
			in := e.Cell.Instances[0]
			return e.Declare(in, "PWRL[0,0]", in, "GNDL[0,0]")
		}, true, false},
		{"extra connector", 16, func(e *core.Editor) error {
			e.Cell.ExtraConnectors = []core.Connector{{Name: "X", At: geom.Pt(0, 22*lam), Layer: geom.NM, Width: 4 * lam}}
			return nil
		}, true, true},
		{"12x12", 12, func(*core.Editor) error { return nil }, false, true},
	} {
		e := arrayEditor(t, tc.n)
		if err := tc.edit(e); err != nil {
			t.Fatalf("%s: %v", tc.what, err)
		}
		v := &verify.Verifier{Hier: true}
		inc := &Incremental{}
		res, err := inc.Check(e, v)
		if err != nil {
			t.Fatalf("%s: %v", tc.what, err)
		}
		rep, _ := v.Verify(e)
		if (rep.Lattice() != nil) != tc.fast || inc.Ref.Stats().TemplateCertified != 0 {
			t.Errorf("%s: fast-path lattice %v (want %v), %d check(s) settled by template (want 0)",
				tc.what, rep.Lattice() != nil, tc.fast, inc.Ref.Stats().TemplateCertified)
		}
		flat, err := CheckEditorFlat(e)
		if err != nil {
			t.Fatal(err)
		}
		if res.Clean != flat.Clean || !reflect.DeepEqual(res.Mismatches, flat.Mismatches) || flat.Clean != tc.clean {
			t.Errorf("%s: verdict differs from the flat comparison, or the flat one from clean=%v:\ngot:  %v %v\nflat: %v %v", tc.what, tc.clean, res.Clean, res.Mismatches, flat.Clean, flat.Mismatches)
		}
	}
}
