package riot

import (
	"strings"
	"testing"
)

func TestSessionLibraryFiles(t *testing.T) {
	s, err := NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"pads.cif", "srcell.sticks", "nand.sticks", "or4.sticks"} {
		if _, ok := s.File(f); !ok {
			t.Errorf("library file %s missing", f)
		}
	}
}

// TestSessionLibraryFilesIsolated pins that sessions share no library
// file: a WRITE over one in one session, or an in-place change to the
// bytes Session.File returned, leaves another session's file intact.
func TestSessionLibraryFilesIsolated(t *testing.T) {
	a, err := NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	file := func(s *Session, name string) string {
		data, _ := s.File(name)
		return string(data)
	}
	want, wantSR := file(b, "nand.sticks"), file(b, "srcell.sticks")
	if err := a.ExecAll("READ srcell.sticks", "WRITE srcell.sticks"); err != nil {
		t.Fatal(err)
	}
	if file(a, "srcell.sticks") == wantSR {
		t.Fatal("WRITE left srcell.sticks as it was; the test needs it overwritten")
	}
	data, _ := a.File("nand.sticks")
	for i := range data {
		data[i] = ' '
	}
	if file(b, "nand.sticks") != want {
		t.Error("an in-place change to one session's nand.sticks shows in another's")
	}
	if file(b, "srcell.sticks") != wantSR {
		t.Error("a WRITE in one session replaced another's srcell.sticks")
	}
	if err := b.ExecAll("READ nand.sticks", "READ srcell.sticks"); err != nil {
		t.Fatalf("another session's changes broke this one's library: %v", err)
	}
}

func TestSessionQuickstartFlow(t *testing.T) {
	s, err := NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	err = s.ExecAll(
		"READ nand.sticks",
		"EDIT CHIP",
		"CREATE NAND g1 AT 0 0",
		"CREATE NAND g2 AT 40 5",
		"CONNECT g2.PWRL g1.PWRR",
		"CONNECT g2.GNDL g1.GNDR",
		"ABUT",
	)
	if err != nil {
		t.Fatal(err)
	}
	chip, ok := s.Design().Cell("CHIP")
	if !ok {
		t.Fatal("CHIP missing")
	}
	g1, _ := chip.InstanceByName("g1")
	g2, _ := chip.InstanceByName("g2")
	if g2.BBox().Min.X != g1.BBox().Max.X {
		t.Error("abut failed through the facade")
	}
}

func TestSessionInstallLibrary(t *testing.T) {
	s, _ := NewSession(nil)
	if err := s.InstallLibrary(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Design().Cell("SRCELL"); !ok {
		t.Error("library not installed")
	}
}

func TestSessionRenderAndPlot(t *testing.T) {
	s, _ := NewSession(nil)
	if err := s.ExecAll("READ nand.sticks", "EDIT TOP", "CREATE NAND g AT 0 0", "ENDEDIT"); err != nil {
		t.Fatal(err)
	}
	ppm, err := s.RenderPPM("TOP", 320, 240, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(ppm), "P6\n320 240\n") {
		t.Error("bad PPM header")
	}
	hpgl, err := s.PlotHPGL("TOP", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(hpgl), "IN;") || !strings.Contains(string(hpgl), "PD") {
		t.Error("bad HP-GL stream")
	}
	if _, err := s.RenderPPM("NOPE", 10, 10, false); err == nil {
		t.Error("render of unknown cell accepted")
	}
}

func TestSessionExportCIF(t *testing.T) {
	s, _ := NewSession(nil)
	if err := s.ExecAll("READ nand.sticks", "EDIT TOP", "CREATE NAND g AT 0 0", "ENDEDIT"); err != nil {
		t.Fatal(err)
	}
	text, err := s.ExportCIF("TOP")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "9 TOP;") || !strings.Contains(string(text), "DS") {
		t.Errorf("CIF looks wrong:\n%s", text)
	}
}

func TestSessionPlotCommand(t *testing.T) {
	s, _ := NewSession(nil)
	if err := s.ExecAll("READ nand.sticks", "EDIT TOP", "CREATE NAND g AT 0 0", "PLOT top.hpgl"); err != nil {
		t.Fatal(err)
	}
	data, ok := s.File("top.hpgl")
	if !ok || !strings.Contains(string(data), "SP") {
		t.Error("PLOT command produced nothing")
	}
}

func TestSessionWorkstations(t *testing.T) {
	s, _ := NewSession(nil)
	if err := s.ExecAll("READ nand.sticks", "EDIT TOP"); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"charles", "gigi"} {
		u, ws, err := s.OpenWorkstation(kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if u == nil || ws == nil {
			t.Fatalf("%s: nil workstation", kind)
		}
		u.Render()
	}
	if _, _, err := s.OpenWorkstation("vt100"); err == nil {
		t.Error("unknown workstation accepted")
	}
}

func TestSessionJournal(t *testing.T) {
	s, _ := NewSession(nil)
	if err := s.ExecAll("READ nand.sticks", "EDIT TOP", "CREATE NAND g AT 0 0"); err != nil {
		t.Fatal(err)
	}
	if len(s.JournalLines()) != 3 {
		t.Errorf("journal = %v", s.JournalLines())
	}
}

func TestSessionRun(t *testing.T) {
	var out strings.Builder
	s, _ := NewSession(&out)
	input := "READ nand.sticks\nCELLS\nBOGUS\nQUIT\n"
	if err := s.Run(strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "NAND") {
		t.Error("CELLS output missing")
	}
	if !strings.Contains(out.String(), "?") {
		t.Error("error report missing")
	}
}

// TestSessionCheckLVSPadframe assembles the padframe example through
// the command interface and verifies the layout against its declared
// composition — the full verification triad's last leg over a design
// with arrays, orientations, CIF pads and routes.
func TestSessionCheckLVSPadframe(t *testing.T) {
	s, err := NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ExecAll(
		"READ srcell.sticks",
		"READ pads.cif",
		"EDIT CORE",
		"CREATE SRCELL row0 AT 0 0 ARRAY 4 1",
		"CREATE SRCELL row1 AT 0 24 ARRAY 4 1",
		"ENDEDIT",
		"EDIT FRAME",
		"CREATE CORE core AT 120 120",
		"CREATE PADIN south AT 120 40 ORIENT MXR180 ARRAY 2 1 80 0",
		"CREATE PADIN north AT 120 340 ARRAY 2 1 80 0",
		"CREATE PADIN west AT 40 120 ORIENT R90 ARRAY 1 2 0 80",
		"CREATE PADOUT east AT 340 120 ORIENT R270 ARRAY 1 2 0 80",
		"CONNECT west.P[0] core.row0.IN[0]",
		"ROUTE",
		"CONNECT east.P[0] core.row0.OUT[3]",
		"ROUTE",
	); err != nil {
		t.Fatal(err)
	}
	for _, cell := range []string{"CORE", "FRAME"} {
		res, err := s.CheckLVS(cell)
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		if !res.Clean {
			t.Fatalf("%s: LVS mismatches: %v", cell, res.Mismatches)
		}
	}

	// break a connection and re-verify: the FRAME editor session still
	// declares west.P[0] -> core.row0.IN[0], so the deleted route
	// surfaces as a structured open
	routeName := ""
	for _, in := range s.Editor().Cell.Instances {
		if strings.HasPrefix(in.Name, "ROUTE") {
			routeName = in.Name
			break
		}
	}
	if routeName == "" {
		t.Fatal("no route instance in FRAME")
	}
	if err := s.Exec("DELETE " + routeName); err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckLVS("FRAME")
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean {
		t.Fatal("deleted pad route verified clean")
	}
	found := false
	for _, mm := range res.Mismatches {
		if string(mm.Kind) == "open" {
			found = true
		}
	}
	if !found {
		t.Fatalf("deleted pad route reported as %v", res.Mismatches)
	}
}
