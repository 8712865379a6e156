package shell

import (
	"strings"
	"testing"
)

// TestShellExtract drives the EXTRACT command: on the cell under edit
// (through the incremental verifier) and on a named cell.
func TestShellExtract(t *testing.T) {
	env := newEnv(t)
	sh := env.sh
	if err := sh.ExecAll(
		"READ gate.sticks",
		"EDIT TOP",
		"CREATE GATE a AT 0 0",
		"CREATE GATE b AT 20 0",
		"EXTRACT",
	); err != nil {
		t.Fatal(err)
	}
	out := env.out.String()
	if !strings.Contains(out, "TOP:") || !strings.Contains(out, "net(s)") {
		t.Errorf("EXTRACT report missing summary:\n%s", out)
	}

	// named-cell form
	if err := sh.Exec("EXTRACT GATE"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.out.String(), "GATE:") {
		t.Errorf("EXTRACT GATE report missing:\n%s", env.out.String())
	}
}

// TestShellVerifierAcrossEditorSessions pins the editor-recreation
// regression: generations are globally unique, so a fresh editor on
// the same cell (ENDEDIT + EDIT) can never collide with a cached
// generation and serve a stale report.
func TestShellVerifierAcrossEditorSessions(t *testing.T) {
	env := newEnv(t)
	sh := env.sh
	if err := sh.ExecAll(
		"READ gate.sticks",
		"EDIT TOP",
		"EXTRACT", // primes the cache on the empty cell
	); err != nil {
		t.Fatal(err)
	}
	if err := sh.ExecAll(
		"CREATE GATE a AT 0 0",
		"ENDEDIT",
		"EDIT TOP", // a fresh editor on the same cell
	); err != nil {
		t.Fatal(err)
	}
	rep, err := sh.Verifier.Verify(sh.Editor)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CircuitErr != nil {
		t.Fatal(rep.CircuitErr)
	}
	if len(rep.Circuit.Sites) == 0 {
		t.Fatal("stale pre-edit report served after editor recreation")
	}
}

// TestShellVerifierReuse checks that repeated DRC/EXTRACT of the cell
// under edit hits the generation-keyed cache, and that edits flow
// through it correctly (the second EXTRACT sees the moved instance).
func TestShellVerifierReuse(t *testing.T) {
	env := newEnv(t)
	sh := env.sh
	// this test pins the scratch flat run the engine's declines take
	sh.Verifier.Hier = false
	if err := sh.ExecAll(
		"READ gate.sticks",
		"EDIT TOP",
		"CREATE GATE a AT 0 0",
		"CREATE GATE b AT 20 0", // abutted: IN meets OUT, one net
		"EXTRACT",
		"DRC",
	); err != nil {
		t.Fatal(err)
	}
	rep1, err := sh.Verifier.Verify(sh.Editor)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := sh.Verifier.Verify(sh.Editor)
	if err != nil {
		t.Fatal(err)
	}
	if rep1 != rep2 {
		t.Error("unchanged cell: verifier must return the cached report")
	}
	ckt1 := rep1.Circuit
	if ckt1 == nil || !ckt1.SameNet(sh.Editor.Cell, "a.OUT", "b.IN") {
		t.Fatal("abutted gates must share a net")
	}

	// move b away: nets split, and the new report must reflect it
	if err := sh.Exec("MOVE b 30 0"); err != nil {
		t.Fatal(err)
	}
	rep3, err := sh.Verifier.Verify(sh.Editor)
	if err != nil {
		t.Fatal(err)
	}
	if rep3 == rep2 {
		t.Error("edit must invalidate the cached report")
	}
	if rep3.Circuit.SameNet(sh.Editor.Cell, "a.OUT", "b.IN") {
		t.Error("moved gate still shares a net")
	}
}
