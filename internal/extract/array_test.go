package extract

import (
	"fmt"
	"testing"

	"riot/internal/core"
	"riot/internal/flatten"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/rules"
)

// srArray builds a composition holding one SRCELL instance replicated
// nx x ny with abutting spacing (the cell is 20x24 lambda), the
// paper's shift-register-chain composition.
func srArray(t testing.TB, nx, ny int) *core.Cell {
	t.Helper()
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		t.Fatal(err)
	}
	top := core.NewComposition(fmt.Sprintf("TOP%dX%d", nx, ny))
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	sr, _ := d.Cell("SRCELL")
	in := core.NewInstance("a", sr, geom.Identity)
	in.Nx, in.Ny = nx, ny
	in.Sx, in.Sy = 20*rules.Lambda, 24*rules.Lambda
	top.Instances = append(top.Instances, in)
	return top
}

// TestExtractArraySeams extracts a 3x2 SRCELL array and checks the
// connectivity the replication grid creates: rails run unbroken across
// every column seam, abutting rows short row N's power rail into row
// N+1's ground rail (the cells abut at y=24 lambda where both rails'
// edges meet), and every copy contributes its transistors.
func TestExtractArraySeams(t *testing.T) {
	top := srArray(t, 3, 2)
	ckt, err := FromCell(top)
	if err != nil {
		t.Fatal(err)
	}
	// 4 devices per SRCELL, 6 copies
	if got := len(ckt.Transistors); got != 24 {
		t.Errorf("transistors = %d, want 24", got)
	}
	// rail continuity across the two column seams, both rows
	for _, pair := range [][2]string{
		{"a.PWRL[0,0]", "a.PWRR[2,0]"},
		{"a.PWRL[0,1]", "a.PWRR[2,1]"},
		{"a.GNDL[0,0]", "a.GNDR[2,0]"},
		{"a.GNDL[0,1]", "a.GNDR[2,1]"},
		// the poly data/clock comb is continuous across columns
		{"a.IN[0,0]", "a.OUT[2,0]"},
		{"a.IN[0,1]", "a.OUT[2,1]"},
		// vertical abutment: row 0's power rail (top edge y=24) meets
		// row 1's ground rail (bottom edge y=24)
		{"a.PWRL[0,0]", "a.GNDL[0,1]"},
	} {
		if !ckt.SameNet(top, pair[0], pair[1]) {
			t.Errorf("%s and %s should be one net across the array seam", pair[0], pair[1])
		}
	}
	// row 1's power rail tops the array and touches nothing above
	if ckt.SameNet(top, "a.PWRL[0,1]", "a.PWRL[0,0]") {
		t.Error("top row's power rail should not short into the row below")
	}
	for _, lbl := range []string{"a.PWRL[0,0]", "a.GNDR[2,1]", "a.IN[0,0]", "a.TAP[1,0]"} {
		if _, ok := ckt.Net(top, lbl); !ok {
			t.Errorf("label %s did not resolve to material", lbl)
		}
	}
}

// TestExtractArrayRow checks a one-axis array: single-index connector
// names and the shift-register chain the paper describes ("the array
// elements abut, making the shift register chain connections as well
// as power and ground connections").
func TestExtractArrayRow(t *testing.T) {
	top := srArray(t, 4, 1)
	ckt, err := FromCell(top)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ckt.Transistors); got != 16 {
		t.Errorf("transistors = %d, want 16", got)
	}
	for _, pair := range [][2]string{
		{"a.PWRL[0]", "a.PWRR[3]"},
		{"a.GNDL[0]", "a.GNDR[3]"},
		{"a.IN[0]", "a.OUT[3]"},
	} {
		if !ckt.SameNet(top, pair[0], pair[1]) {
			t.Errorf("%s and %s should be one net", pair[0], pair[1])
		}
	}
	if ckt.SameNet(top, "a.PWRL[0]", "a.GNDL[0]") {
		t.Error("rails shorted")
	}
}

// TestFragmentsKeepOccurrence: every solved fragment — diffusion
// pieces cut at gates included — carries the occurrence id of the leaf
// that drew it.
func TestFragmentsKeepOccurrence(t *testing.T) {
	fr, err := flatten.Cell(srArray(t, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, frags, err := SolveNets(fr)
	if err != nil {
		t.Fatal(err)
	}
	// sticks geometry may overhang its declared box by up to a wire
	// width; a contact-size margin covers the library cells
	margin := rules.ContactSize * rules.Lambda
	ndSrcs := map[int]int{}
	for _, f := range frags {
		if !fr.SrcBoxes[f.Src].Inset(-margin).ContainsRect(f.R) {
			t.Fatalf("%v fragment %v strays from its occurrence %d box %v", f.Layer, f.R, f.Src, fr.SrcBoxes[f.Src])
		}
		if f.Layer == geom.ND {
			ndSrcs[f.Src]++
		}
	}
	if len(ndSrcs) != 3 || ndSrcs[0] != ndSrcs[1] || ndSrcs[1] != ndSrcs[2] {
		t.Errorf("diffusion fragments per occurrence = %v, want the same count for each of 0, 1, 2", ndSrcs)
	}
}
