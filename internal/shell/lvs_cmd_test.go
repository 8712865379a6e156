package shell

import (
	"bytes"
	"strings"
	"testing"

	"riot/internal/lib"
)

// lvsShell builds a shell with the library installed and an output
// buffer attached.
func lvsShell(t *testing.T) (*Shell, *bytes.Buffer) {
	t.Helper()
	var out bytes.Buffer
	s := New(&out)
	if err := lib.Install(s.Design); err != nil {
		t.Fatal(err)
	}
	return s, &out
}

// TestLVSCommandClean runs LVS over an abutted assembly through the
// command interface.
func TestLVSCommandClean(t *testing.T) {
	s, out := lvsShell(t)
	if err := s.ExecAll(
		"EDIT TOP",
		"CREATE NAND g1 AT 0 0",
		"CREATE NAND g2 AT 40 5",
		"CONNECT g2.PWRL g1.PWRR",
		"CONNECT g2.GNDL g1.GNDR",
		"ABUT",
		"LVS",
	); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "netlists match") {
		t.Fatalf("LVS output = %q", out.String())
	}
}

// TestLVSCommandReportsOpen deletes a route out from under its
// declared connection and checks the command reports the open.
func TestLVSCommandReportsOpen(t *testing.T) {
	s, out := lvsShell(t)
	if err := s.ExecAll(
		"EDIT TOP",
		"CREATE SRCELL sr AT 0 40",
		"CREATE NAND nd AT 0 0",
		"ORIENT nd MXR180",
		"CONNECT nd.A sr.TAP",
		"ROUTE",
	); err != nil {
		t.Fatal(err)
	}
	// find and delete the generated route instance
	routeName := ""
	for _, in := range s.Editor.Cell.Instances {
		if strings.HasPrefix(in.Name, "ROUTE") {
			routeName = in.Name
		}
	}
	if routeName == "" {
		t.Fatal("no route instance created")
	}
	if err := s.ExecAll("DELETE "+routeName, "LVS"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "open") || !strings.Contains(got, "LVS mismatch") {
		t.Fatalf("LVS output = %q, want an open reported", got)
	}
}

// TestLVSCommandSharesVerifierCache pins the cache sharing: DRC then
// LVS on the cell under edit runs one verification, not two.
func TestLVSCommandSharesVerifierCache(t *testing.T) {
	s, _ := lvsShell(t)
	if err := s.ExecAll(
		"EDIT TOP",
		"CREATE SRCELL a AT 0 0",
		"CREATE SRCELL b AT 20 0",
		"DRC",
	); err != nil {
		t.Fatal(err)
	}
	st := s.Verifier.Stats()
	if err := s.Exec("LVS"); err != nil {
		t.Fatal(err)
	}
	after := s.Verifier.Stats()
	if after.Full != st.Full || after.Hier != st.Hier {
		t.Fatalf("LVS re-verified the design: %+v -> %+v", st, after)
	}
	if after.Cached != st.Cached+1 {
		t.Fatalf("LVS did not hit the verifier cache: %+v -> %+v", st, after)
	}
}

// TestLVSCommandStats pins the -stats surface: an array design reports
// its witness coverage, every occurrence certified, and one leaf
// extracted in process.
func TestLVSCommandStats(t *testing.T) {
	s, out := lvsShell(t)
	if err := s.ExecAll(
		"EDIT TOP",
		"CREATE SRCELL arr AT 0 0",
		"REPLICATE arr 4 2",
		"LVS -stats",
	); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "witness: 8/8 leaf occurrence(s) certified; 1 leaf extraction(s) this session") {
		t.Fatalf("LVS -stats output = %q", got)
	}
	if !strings.Contains(got, "netlists match") {
		t.Fatalf("LVS -stats output = %q", got)
	}
}
