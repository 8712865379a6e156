package lvs

import (
	"fmt"
	"testing"

	"riot/internal/core"
	"riot/internal/filter"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/rules"
	"riot/internal/verify"
)

// gridEditor builds an n x n grid of individually placed, abutting
// SRCELL instances under an editor.
func gridEditor(tb testing.TB, n int) *core.Editor {
	tb.Helper()
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		tb.Fatal(err)
	}
	top := core.NewComposition(fmt.Sprintf("TOP%d", n))
	if err := d.AddCell(top); err != nil {
		tb.Fatal(err)
	}
	e, err := core.NewEditor(d, top)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n*n; i++ {
		x, y := i%n, i/n
		tr := geom.MakeTransform(geom.R0, geom.Pt(x*20*rules.Lambda, y*24*rules.Lambda))
		if _, err := e.CreateInstance("SRCELL", fmt.Sprintf("c%d", i), tr, 1, 1, 0, 0); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// scratchCell and scratchEditor run the certified comparison from
// scratch: a fresh Incremental over a zero verify.Verifier, whose
// flatten and solve are the layout side. The differentials use them as
// the cache-free baseline the warm paths must reproduce.
func scratchCell(c *core.Cell) (*Result, error) {
	return new(Incremental).CheckCell(c, &verify.Verifier{})
}

func scratchEditor(e *core.Editor) (*Result, error) {
	return new(Incremental).Check(e, &verify.Verifier{})
}

func mustClean(tb testing.TB, res *Result, err error, what string) {
	tb.Helper()
	if err != nil {
		tb.Fatalf("%s: %v", what, err)
	}
	if !res.Clean {
		tb.Fatalf("%s: not clean: %v", what, res.Mismatches)
	}
	if res.RefNets != res.LayNets || (res.Cert.Certified == 0 && len(res.NetMap) != res.RefNets) {
		tb.Fatalf("%s: incomplete match: %d mapped of %d ref / %d lay nets",
			what, len(res.NetMap), res.RefNets, res.LayNets)
	}
}

// TestLibraryCellsClean runs LVS on every shipped library cell: a leaf
// compared against its own extraction must match exactly.
func TestLibraryCellsClean(t *testing.T) {
	cells, err := lib.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		res, err := scratchCell(c)
		mustClean(t, res, err, c.Name)
		if c.Name == "SRCELL" && res.RefDevices == 0 {
			t.Error("SRCELL reduced to no devices")
		}
	}
}

// TestAbuttedPairClean abuts two NAND gates (the quickstart flow) and
// checks the assembly verifies: declared rail connections realized by
// abutment, netlists isomorphic.
func TestAbuttedPairClean(t *testing.T) {
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		t.Fatal(err)
	}
	top := core.NewComposition("TOP")
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEditor(d, top)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := e.CreateInstance("NAND", "g1", geom.MakeTransform(geom.R0, geom.Pt(0, 0)), 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := e.CreateInstance("NAND", "g2", geom.MakeTransform(geom.R0, geom.Pt(40*rules.Lambda, 5*rules.Lambda)), 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddConnection(g2, "PWRL", g1, "PWRR"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddConnection(g2, "GNDL", g1, "GNDR"); err != nil {
		t.Fatal(err)
	}
	if warns, err := e.Abut(false); err != nil || len(warns) > 0 {
		t.Fatalf("abut: %v %v", warns, err)
	}
	if len(e.Declared) != 2 {
		t.Fatalf("declared records = %d, want 2", len(e.Declared))
	}
	res, err := scratchEditor(e)
	mustClean(t, res, err, "abutted pair")
}

// TestGridClean checks an abutting SRCELL grid: every seam connection
// (rails, data chain, clock columns) is sanctioned structure, so the
// reference matches the layout with no declarations at all.
func TestGridClean(t *testing.T) {
	e := gridEditor(t, 4)
	res, err := scratchEditor(e)
	mustClean(t, res, err, "4x4 grid")
}

// TestReplicatedArrayClean checks the same structure built the
// paper's way: one instance with Nx x Ny replication. Copy seams abut
// exactly like individually placed cells.
func TestReplicatedArrayClean(t *testing.T) {
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		t.Fatal(err)
	}
	top := core.NewComposition("ARR")
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEditor(d, top)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateInstance("SRCELL", "arr", geom.Identity, 4, 3, 0, 0); err != nil {
		t.Fatal(err)
	}
	res, err := scratchEditor(e)
	mustClean(t, res, err, "4x3 array")
}

// TestFilterVariantsClean runs LVS over both figure-9 logic assemblies
// and the figure-10 chip — routed channels, stretched cells, pads —
// with no editing session (structure-only reference).
func TestFilterVariantsClean(t *testing.T) {
	for _, variant := range []filter.Variant{filter.Routed, filter.Stretched} {
		d, logic, _, err := filter.BuildLogic(variant)
		if err != nil {
			t.Fatal(err)
		}
		_ = d
		res, err := scratchCell(logic)
		mustClean(t, res, err, "logic/"+variant.String())
	}
	for _, variant := range []filter.Variant{filter.Routed, filter.Stretched} {
		_, chip, _, err := filter.BuildChip(variant)
		if err != nil {
			t.Fatal(err)
		}
		res, err := scratchCell(chip)
		mustClean(t, res, err, "chip/"+variant.String())
	}
}
