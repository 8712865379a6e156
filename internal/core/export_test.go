package core

import (
	"testing"

	"riot/internal/cif"
	"riot/internal/geom"
)

func TestExportCIFHierarchy(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "A")
	if _, err := e.CreateInstance("A", "one", geom.Identity, 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateInstance("A", "row", geom.MakeTransform(geom.R90, geom.Pt(60*L, 0)), 3, 2, 20*L, 10*L); err != nil {
		t.Fatal(err)
	}
	f, err := ExportCIF(e.Cell)
	if err != nil {
		t.Fatal(err)
	}
	// the leaf is shared: one symbol for A, one for TOP
	if len(f.Symbols) != 2 {
		t.Fatalf("symbols = %d", len(f.Symbols))
	}
	topSym := f.SymbolByName("TOP")
	if topSym == nil {
		t.Fatal("TOP symbol missing")
	}
	// arrays expand copy by copy: 1 + 3*2 calls
	calls := 0
	for _, el := range topSym.Elements {
		if _, ok := el.(cif.Call); ok {
			calls++
		}
	}
	if calls != 7 {
		t.Errorf("calls = %d, want 7", calls)
	}
	// geometry bbox preserved through export
	box, err := f.SymbolBBox(topSym.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := e.Cell.BBox()
	if !box.ContainsRect(want.Inset(2 * L)) {
		t.Errorf("export bbox %v does not cover cell bbox %v", box, want)
	}
	// the output round-trips through the parser
	if _, err := cif.ParseString(cif.String(f)); err != nil {
		t.Errorf("exported CIF does not parse: %v", err)
	}
}

func TestExportCIFLeafWithNestedCalls(t *testing.T) {
	// a CIF leaf whose symbol calls a sub-symbol must drag the
	// sub-symbol along, renumbered
	src := `
DS 1; L NM; B 1000 1000 500 500; DF;
DS 2; 9 PAD; C 1 T 0 0; C 1 T 2000 0; 94 P 500 0 NM 500; DF;
E`
	f, err := parseCIFString(src)
	if err != nil {
		t.Fatal(err)
	}
	pad, err := NewLeafFromCIF(f, f.SymbolByName("PAD"))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDesign()
	if err := d.AddCell(pad); err != nil {
		t.Fatal(err)
	}
	top := NewComposition("TOP")
	top.Instances = append(top.Instances, NewInstance("p", pad, geom.Identity))
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	out, err := ExportCIF(top)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Symbols) != 3 { // sub + PAD + TOP
		t.Fatalf("symbols = %d", len(out.Symbols))
	}
	// every call resolves inside the output
	for _, s := range out.Symbols {
		for _, el := range s.Elements {
			if call, ok := el.(cif.Call); ok {
				if out.SymbolByID(call.SymbolID) == nil {
					t.Errorf("dangling call of %d", call.SymbolID)
				}
			}
		}
	}
	if _, err := out.SymbolBBox(out.SymbolByName("TOP").ID); err != nil {
		t.Errorf("bbox: %v", err)
	}
}

func TestExportCIFConnectorsCarried(t *testing.T) {
	d, e := newEditor(t)
	addLeaf(t, d, "A")
	if _, err := e.CreateInstance("A", "a", geom.Identity, 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	f, err := ExportCIF(e.Cell)
	if err != nil {
		t.Fatal(err)
	}
	topSym := f.SymbolByName("TOP")
	if len(topSym.Connectors()) == 0 {
		t.Error("finished connectors not exported")
	}
}

func TestExportCIFSharedLeafOnce(t *testing.T) {
	// two compositions sharing a leaf: the leaf exports once
	d, e := newEditor(t)
	addLeaf(t, d, "A")
	sub := NewComposition("SUB")
	if err := d.AddCell(sub); err != nil {
		t.Fatal(err)
	}
	se, _ := NewEditor(d, sub)
	if _, err := se.CreateInstance("A", "x", geom.Identity, 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateInstance("A", "direct", geom.Identity, 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateInstance("SUB", "nested", geom.MakeTransform(geom.R0, geom.Pt(40*L, 0)), 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	f, err := ExportCIF(e.Cell)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, s := range f.Symbols {
		if s.Name == "A" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("leaf exported %d times", count)
	}
}
