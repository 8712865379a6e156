package riot

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// array builds a session with an SRCELL grid under edit.
func array(t *testing.T, nx, ny int) *Session {
	t.Helper()
	s, err := NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ExecAll(
		"READ srcell.sticks",
		"EDIT CHIP",
		"CREATE SRCELL a ARRAY "+itoa(nx)+" "+itoa(ny),
	); err != nil {
		t.Fatal(err)
	}
	return s
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestTraceShape pins the span tree of a traced LVS run over a 4x4
// array: the verifier's root span with the hierarchical engine's
// cert-build and compose work nested inside, then the LVS
// reference/match stages — and no flatten anywhere.
func TestTraceShape(t *testing.T) {
	s := array(t, 4, 4)
	tr := NewTrace()
	s.SetTrace(tr)
	if _, err := s.CheckLVS("CHIP"); err != nil {
		t.Fatal(err)
	}

	roots := tr.Roots()
	if len(roots) != 1 {
		t.Fatalf("got %d root spans, want 1 (lvs)", len(roots))
	}
	root := roots[0]
	if root.Name() != "lvs" {
		t.Fatalf("root span = %q, want lvs", root.Name())
	}
	for _, path := range [][]string{
		{"verify"},
		{"verify", "hier"},
		{"verify", "hier", "certs", "cert build SRCELL"},
		{"verify", "hier", "certs", "cert build SRCELL", "extract"},
		{"verify", "hier", "certs", "cert build SRCELL", "drc"},
		{"verify", "hier", "compose"},
		{"verify", "hier", "compose", "width"},
		{"verify", "materialize"},
		{"reference"},
		{"match"},
	} {
		sp := root
		for _, name := range path {
			if sp = sp.Find(name); sp == nil {
				t.Fatalf("span path %v missing (no %q)", path, name)
			}
		}
		if sp.Dur() < 0 {
			t.Errorf("span %v left open", path)
		}
	}
	// LVS takes occurrence identity from the composition: nothing
	// flattens the design
	if root.Find("flatten") != nil {
		t.Errorf("hier-served LVS recorded a flatten span")
	}
}

// TestTraceCoverage64 pins the acceptance bar for span accounting: on a
// 64x64 hierarchical verify, the root span's direct children account
// for at least 90% of its wall time — the trace explains where the run
// went rather than leaving it in an untimed gap.
func TestTraceCoverage64(t *testing.T) {
	s := array(t, 64, 64)
	tr := NewTrace()
	s.SetTrace(tr)
	if _, err := s.VerifyCell("CHIP"); err != nil {
		t.Fatal(err)
	}

	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name() != "verify" {
		t.Fatalf("want one verify root, got %v", roots)
	}
	root := roots[0]
	var sum time.Duration
	for _, c := range root.Children() {
		sum += c.Dur()
	}
	if total := root.Dur(); sum < total*9/10 {
		t.Errorf("children cover %v of %v (<90%%)", sum, total)
	}
}

// TestSnapshotSurfacesAgree pins that the shell STATS JSON command and
// Session.Snapshot render byte-identical content (the riot -stats=json
// flag is pinned against STATS JSON in cmd/riot's tests, closing the
// three-surface triangle).
func TestSnapshotSurfacesAgree(t *testing.T) {
	var out bytes.Buffer
	s, err := NewSession(&out)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ExecAll(
		"READ srcell.sticks",
		"EDIT CHIP",
		"CREATE SRCELL a ARRAY 4 4",
		"DRC",
	); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := s.Exec("STATS JSON"); err != nil {
		t.Fatal(err)
	}
	fromShell := strings.TrimSpace(out.String())
	fromSession := string(s.Snapshot().JSON())
	if fromShell != fromSession {
		t.Errorf("STATS JSON and Session.Snapshot disagree:\nshell:   %s\nsession: %s", fromShell, fromSession)
	}
	var parsed map[string]map[string]any
	if err := json.Unmarshal([]byte(fromSession), &parsed); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if _, ok := parsed["verify"]; !ok {
		t.Errorf("snapshot missing the verify section: %s", fromSession)
	}
}
