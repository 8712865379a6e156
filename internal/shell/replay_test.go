package shell

import (
	"fmt"
	"maps"
	"strings"
	"testing"
	"testing/fstest"

	"riot/internal/compo"
	"riot/internal/lib"
)

// narrowGate is the gate cell with its bottom connectors moved closer
// together — the "modified leaf cell" scenario of the paper's
// REPLAY discussion.
const narrowGate = `STICKS GATE
BBOX 0 0 20 10
WIRE NM 2 0 5 20 5
WIRE NM 2 4 0 4 10
WIRE NM 2 12 0 12 10
CONNECTOR IN 0 5 NM 2 left
CONNECTOR OUT 20 5 NM 2 right
CONNECTOR B1 4 0 NM 2 bottom
CONNECTOR B2 12 0 NM 2 bottom
CONNECTOR T1 4 10 NM 2 top
CONNECTOR T2 12 10 NM 2 top
END
`

// session builds a small assembly whose final state depends on
// connector positions: b is abutted onto a by connector match.
var sessionCmds = []string{
	"READ gate.sticks",
	"EDIT TOP",
	"CREATE GATE a AT 0 0",
	"CREATE GATE b AT 31 60",
	"CONNECT b.B1 a.T1",
	"CONNECT b.B2 a.T2",
	"ABUT",
}

func runSession(t *testing.T, gateSrc string) *Shell {
	t.Helper()
	sh := New(nil)
	sh.FS = fstest.MapFS{"gate.sticks": {Data: []byte(gateSrc)}}
	sh.WriteFile = func(string, []byte) error { return nil }
	if err := sh.ExecAll(sessionCmds...); err != nil {
		t.Fatal(err)
	}
	return sh
}

// TestReplayAfterLeafEdit is the paper's claim: "Riot saves the
// commands given by the user and can re-run an editing session if some
// of the input files have changed. The replay file uses instance names
// and connector names to identify connections, and the positions are
// re-calculated."
func TestReplayAfterLeafEdit(t *testing.T) {
	// original session
	sh1 := runSession(t, gateSticks)

	// re-run the journal against the MODIFIED leaf cell
	sh2 := New(nil)
	sh2.FS = fstest.MapFS{"gate.sticks": {Data: []byte(narrowGate)}}
	sh2.WriteFile = func(string, []byte) error { return nil }
	if err := sh1.Journal.Replay(sh2.Exec); err != nil {
		t.Fatal(err)
	}

	// in both sessions the connection must hold, at different
	// positions
	check := func(sh *Shell, label string) (int, int) {
		t.Helper()
		top, _ := sh.Design.Cell("TOP")
		a, _ := top.InstanceByName("a")
		b, _ := top.InstanceByName("b")
		b1, _ := b.Connector("B1")
		t1, _ := a.Connector("T1")
		if b1.At != t1.At {
			t.Errorf("%s: connection broken: %v vs %v", label, b1.At, t1.At)
		}
		return b1.At.X, b1.At.Y
	}
	x1, _ := check(sh1, "original")
	x2, _ := check(sh2, "replayed")
	if x1 == x2 {
		t.Error("positions identical despite changed leaf cell — replay did not re-calculate")
	}
}

// TestReplayRecoversSession: a journal re-run from scratch reproduces
// the identical design (crash recovery).
func TestReplayRecoversSession(t *testing.T) {
	sh1 := runSession(t, gateSticks)

	sh2 := New(nil)
	sh2.FS = fstest.MapFS{"gate.sticks": {Data: []byte(gateSticks)}}
	sh2.WriteFile = func(string, []byte) error { return nil }
	if err := sh1.Journal.Replay(sh2.Exec); err != nil {
		t.Fatal(err)
	}
	top1, _ := sh1.Design.Cell("TOP")
	top2, _ := sh2.Design.Cell("TOP")
	if top1.BBox() != top2.BBox() {
		t.Errorf("recovered bbox %v != original %v", top2.BBox(), top1.BBox())
	}
	for _, in1 := range top1.Instances {
		in2, ok := top2.InstanceByName(in1.Name)
		if !ok {
			t.Errorf("instance %q lost", in1.Name)
			continue
		}
		if in1.Tr != in2.Tr {
			t.Errorf("instance %q at %v, recovered at %v", in1.Name, in1.Tr, in2.Tr)
		}
	}
}

// TestReplayViaCommand exercises the REPLAY shell command end to end,
// including SAVEJOURNAL.
func TestReplayViaCommand(t *testing.T) {
	env := newEnv(t)
	sh := env.sh
	if err := sh.ExecAll(sessionCmds...); err != nil {
		t.Fatal(err)
	}
	if err := sh.Exec("SAVEJOURNAL session.rpl"); err != nil {
		t.Fatal(err)
	}

	// fresh shell over the same files plus the journal
	out := &strings.Builder{}
	sh2 := New(out)
	sh2.FS = overlayFS{
		base:  fstest.MapFS{"gate.sticks": {Data: []byte(gateSticks)}},
		extra: env.files,
	}
	sh2.WriteFile = func(string, []byte) error { return nil }
	if err := sh2.Exec("REPLAY session.rpl"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replayed") {
		t.Error("no replay report")
	}
	if _, ok := sh2.Design.Cell("TOP"); !ok {
		t.Error("replayed design missing TOP")
	}
}

// TestConnectionDestroyedByMove documents the fundamental limitation:
// "once the instances are positioned to make the connection, the fact
// that the two pieces are connected is lost, and the user is free to
// move the pieces in whatever manner is desired... connections can
// easily be inadvertently destroyed."
func TestConnectionDestroyedByMove(t *testing.T) {
	sh := runSession(t, gateSticks)
	top, _ := sh.Design.Cell("TOP")
	a, _ := top.InstanceByName("a")
	b, _ := top.InstanceByName("b")

	// the connection holds...
	b1, _ := b.Connector("B1")
	t1, _ := a.Connector("T1")
	if b1.At != t1.At {
		t.Fatal("connection not made")
	}
	// ...moving b destroys it with no warning of any kind
	if err := sh.Exec("MOVE b 3 0"); err != nil {
		t.Fatalf("the move is not even questioned: %v", err)
	}
	b1, _ = b.Connector("B1")
	if b1.At == t1.At {
		t.Error("connection survived the move?")
	}
	// but the journal carries the fix: re-running it re-makes the
	// connection (the MOVE is replayed, then... no, the journal now
	// ends with the stray MOVE; the recovery story is that the user
	// deletes the bad suffix and replays). Verify the prefix replay:
	j := sh.Journal.Lines()
	sh2 := New(nil)
	sh2.FS = fstest.MapFS{"gate.sticks": {Data: []byte(gateSticks)}}
	for _, l := range j[:len(j)-1] { // drop the stray MOVE
		if err := sh2.Exec(l); err != nil {
			t.Fatal(err)
		}
	}
	top2, _ := sh2.Design.Cell("TOP")
	a2, _ := top2.InstanceByName("a")
	b2, _ := top2.InstanceByName("b")
	b1r, _ := b2.Connector("B1")
	t1r, _ := a2.Connector("T1")
	if b1r.At != t1r.At {
		t.Error("prefix replay did not restore the connection")
	}
}

// TestFailedCommandReplays: a command that fails (marked !) leaves the
// instances, the pending list, the declared records, the cell menu and
// both name counters as it found them, so the journal, which records
// only the commands that succeed, replays to the same design.
func TestFailedCommandReplays(t *testing.T) {
	files, err := lib.Files()
	if err != nil {
		t.Fatal(err)
	}
	state := func(sh *Shell) string {
		var b strings.Builder
		if err := compo.Save(&b, sh.Design); err != nil {
			t.Fatal(err)
		}
		fmt.Fprint(&b, sh.Editor.Pending, sh.Editor.Declared)
		return b.String()
	}
	for _, script := range []string{
		// EDGE1 has no width: replicating it along x cannot validate
		"READ pipep.sticks; READ srcell.sticks; EDIT TOP; CREATE PIPEP p AT 0 10; CREATE SRCELL s AT 0 0; CREATE SRCELL t AT 0 30; BRINGOUT p TOP B; !REPLICATE EDGE1 2 1; !CREATE EDGE1 ARRAY 2 1; CREATE PIPEP",
		// c shows no GNDL once replicated: ABUT must fail before a moves
		"READ srcell.sticks; EDIT TOP; CREATE SRCELL a AT 0 0; CREATE SRCELL b AT 40 0; CREATE SRCELL c AT 40 30; CONNECT a.PWRR b.PWRL; CONNECT a.GNDR c.GNDL; REPLICATE c 1 2; !ABUT",
		// the gap does not fit the river route; ROUTE then still has its
		// links and makes ROUTE1
		"READ srcell.sticks; EDIT TOP; CREATE SRCELL a AT 0 0; CREATE SRCELL b AT 7 26; CONNECT b.PHI1B a.PHI1; CONNECT b.PHI2B a.PHI2; !ROUTE NOMOVE; ROUTE",
	} {
		envs := [2]*testEnv{newEnv(t), newEnv(t)}
		for _, env := range envs {
			maps.Copy(env.files, files)
		}
		for _, line := range strings.Split(script, "; ") {
			cmd, fail := strings.CutPrefix(line, "!")
			if err := envs[0].sh.Exec(cmd); (err != nil) != fail {
				t.Fatalf("%s: %v", line, err)
			}
		}
		if err := envs[0].sh.Exec("SAVEJOURNAL j"); err != nil {
			t.Fatal(err)
		}
		envs[1].files["j"] = envs[0].files["j"]
		if err := envs[1].sh.Exec("REPLAY j"); err != nil {
			t.Fatal(err)
		}
		if got, want := state(envs[0].sh), state(envs[1].sh); got != want {
			t.Errorf("%s\nthe session:\n%s\nits replay:\n%s", script, got, want)
		}
	}
}
