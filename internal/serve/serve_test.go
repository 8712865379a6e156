package serve

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func mustDo(t testing.TB, sv *Server, sid, line string) string {
	t.Helper()
	out, err := sv.Do(sid, line)
	if err != nil {
		t.Fatalf("[%s] %s: %v", sid, line, err)
	}
	return out
}

// TestTwoSessionsShareStore is the tentpole's warm-start pin: two
// sessions assembling the same library content — in two different
// designs, so nothing is shared but the content-addressed store — and
// the second session's verification rebuilds no certificates: every
// artifact loads from the store the first session warmed.
func TestTwoSessionsShareStore(t *testing.T) {
	sv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	script := []string{
		"EDIT CHIP",
		"CREATE SRCELL a ARRAY 4 4",
		"LVS CHIP",
	}
	if err := sv.Open("a", "d1"); err != nil {
		t.Fatal(err)
	}
	for _, c := range script {
		mustDo(t, sv, "a", c)
	}
	shA, _ := sv.Shell("a")
	if built := shA.Verifier.HierStats().CertBuilt; built == 0 {
		t.Fatal("cold session built no certificates — the warm assertion below would be vacuous")
	}

	if err := sv.Open("b", "d2"); err != nil {
		t.Fatal(err)
	}
	hitsBefore := sv.mem.Stats().Hits
	var verdict string
	for _, c := range script {
		verdict = mustDo(t, sv, "b", c)
	}
	if !strings.Contains(verdict, "netlists match") {
		t.Fatalf("session b verdict: %q", verdict)
	}
	shB, _ := sv.Shell("b")
	if built := shB.Verifier.HierStats().CertBuilt; built != 0 {
		t.Fatalf("warm session rebuilt %d certificate(s); want 0 (shared store miss)", built)
	}
	if hits := sv.mem.Stats().Hits; hits <= hitsBefore {
		t.Fatalf("warm session hit the shared store %d times; want > 0", hits-hitsBefore)
	}
	// the per-session stats surface sees the same warming
	snap, ok := sv.SessionSnapshot("b")
	if !ok {
		t.Fatal("no snapshot for session b")
	}
	if v, ok := snap.Get("store", "hits"); !ok || v == 0 {
		t.Fatalf("session stats store.hits = %d, %v", v, ok)
	}
	if v, _ := snap.Get("hier", "cert_built"); v != 0 {
		t.Fatalf("session stats hier.cert_built = %d, want 0", v)
	}
}

// sessionScript is the per-session workload for the differential test:
// session i edits its own cell in the shared design, with its own
// placements, and verifies twice with an edit between.
func sessionScript(i int) []string {
	cell := fmt.Sprintf("CELL%d", i)
	return []string{
		"EDIT " + cell,
		fmt.Sprintf("CREATE SRCELL a ARRAY %d 2", 2+i%3),
		"LVS " + cell,
		fmt.Sprintf("CREATE SRCELL b AT %d 60", 120*(1+i%4)),
		"DRC " + cell,
		"LVS " + cell,
		"ENDEDIT",
	}
}

// TestConcurrentDifferential runs N sessions concurrently over ONE
// shared design — interleaved edits, snapshot verifications, shared
// store — and then replays every session's script single-threaded on a
// fresh server. Each session's transcript must be byte-identical:
// verdicts are a function of the frozen generation, never of what the
// other sessions were doing. CI runs this under -race.
func TestConcurrentDifferential(t *testing.T) {
	const n = 6
	run := func(concurrent bool) []string {
		sv, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		transcripts := make([]string, n)
		do := func(i int) {
			sid := fmt.Sprintf("s%d", i)
			if err := sv.Open(sid, "shared"); err != nil {
				t.Error(err)
				return
			}
			var b strings.Builder
			for _, c := range sessionScript(i) {
				out, err := sv.Do(sid, c)
				if err != nil {
					t.Errorf("[%s] %s: %v", sid, c, err)
					return
				}
				b.WriteString(out)
			}
			transcripts[i] = b.String()
		}
		if concurrent {
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) { defer wg.Done(); do(i) }(i)
			}
			wg.Wait()
		} else {
			for i := 0; i < n; i++ {
				do(i)
			}
		}
		return transcripts
	}

	concurrent := run(true)
	sequential := run(false)
	for i := range concurrent {
		if concurrent[i] != sequential[i] {
			t.Errorf("session %d transcript diverged under concurrency:\n--- concurrent ---\n%s--- sequential ---\n%s",
				i, concurrent[i], sequential[i])
		}
	}
}

// TestEditLease pins cell-level write arbitration: EDIT claims the
// cell, a second session's EDIT, DELCELL or RENAME of it is refused
// while the lease is held, and EDIT is admitted after ENDEDIT (or after
// the holder closes).
func TestEditLease(t *testing.T) {
	sv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sid := range []string{"a", "b"} {
		if err := sv.Open(sid, ""); err != nil {
			t.Fatal(err)
		}
	}
	mustDo(t, sv, "a", "EDIT CHIP")
	if _, err := sv.Do("b", "EDIT CHIP"); err == nil || !strings.Contains(err.Error(), "under edit") {
		t.Fatalf("conflicting EDIT not refused: %v", err)
	}
	// the holder's failed re-EDIT of its own cell (the shell refuses a
	// redundant EDIT) must not drop the lease
	if _, err := sv.Do("a", "EDIT CHIP"); err == nil || !strings.Contains(err.Error(), "already editing") {
		t.Fatalf("redundant EDIT: %v", err)
	}
	if _, err := sv.Do("b", "EDIT CHIP"); err == nil || !strings.Contains(err.Error(), "under edit") {
		t.Fatalf("lease dropped by the holder's failed re-EDIT: %v", err)
	}
	// a different cell is free
	mustDo(t, sv, "b", "EDIT OTHER")
	mustDo(t, sv, "a", "ENDEDIT")
	mustDo(t, sv, "b", "ENDEDIT")
	mustDo(t, sv, "b", "EDIT CHIP")
	// another session may neither delete nor rename the leased cell:
	// the holder would edit a cell gone from the design, or share it
	// with whoever edits the new name
	for _, cmd := range []string{"DELCELL CHIP", "RENAME CHIP CHIP2"} {
		if _, err := sv.Do("a", cmd); err == nil || !strings.Contains(err.Error(), `under edit by session "b"`) {
			t.Fatalf("%s of a cell leased by another session not refused: %v", cmd, err)
		}
	}
	if out := mustDo(t, sv, "a", "CELLS"); !strings.Contains(out, "CHIP ") {
		t.Fatalf("a refused DELCELL removed the cell:\n%s", out)
	}
	// the holder may rename its own cell, and the lease follows it
	mustDo(t, sv, "b", "RENAME CHIP CHIP2")
	if _, err := sv.Do("a", "EDIT CHIP2"); err == nil || !strings.Contains(err.Error(), "under edit") {
		t.Fatalf("EDIT of the holder's renamed cell not refused: %v", err)
	}
	mustDo(t, sv, "b", "RENAME CHIP2 CHIP")
	// closing the holder releases its lease
	if err := sv.Close("b"); err != nil {
		t.Fatal(err)
	}
	mustDo(t, sv, "a", "EDIT CHIP")
}

// writeJournal stores a journal file in a session's private files.
func writeJournal(t *testing.T, sv *Server, sid, name string, lines ...string) {
	t.Helper()
	sh, ok := sv.Shell(sid)
	if !ok {
		t.Fatalf("no session %q", sid)
	}
	if err := sh.WriteFile(name, []byte(strings.Join(lines, "\n")+"\n")); err != nil {
		t.Fatal(err)
	}
}

// TestReplayInSession pins REPLAY inside a server session: the replayed
// lines print what the same lines sent directly print, and each takes
// only the lock its own command needs (a REPLAY holding the design's
// exclusive lock while its lines take it again deadlocks the server).
func TestReplayInSession(t *testing.T) {
	sv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	script := []string{"EDIT CHIP", "CREATE SRCELL a ARRAY 3 2", "DRC CHIP", "LVS CHIP", "ENDEDIT"}
	if err := sv.Open("direct", "d1"); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, line := range script {
		want.WriteString(mustDo(t, sv, "direct", line))
	}
	want.WriteString(fmt.Sprintf("replayed %d commands from j\n", len(script)))
	if err := sv.Open("replay", "d2"); err != nil {
		t.Fatal(err)
	}
	writeJournal(t, sv, "replay", "j", script...)
	if got := mustDo(t, sv, "replay", "REPLAY j"); got != want.String() {
		t.Fatalf("replayed output differs from direct\n--- replay ---\n%s--- direct ---\n%s", got, want.String())
	}
	if !strings.Contains(want.String(), "netlists match") {
		t.Fatalf("the script verified nothing:\n%s", want.String())
	}
}

// TestReplayHonoursLeases pins that a replayed line passes the same
// lease check as a client's: session b's replayed EDIT of the cell a
// holds is refused, stops the replay, and leaves the lease with a.
func TestReplayHonoursLeases(t *testing.T) {
	sv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sid := range []string{"a", "b"} {
		if err := sv.Open(sid, ""); err != nil {
			t.Fatal(err)
		}
	}
	mustDo(t, sv, "a", "EDIT CHIP")
	writeJournal(t, sv, "b", "j", "EDIT CHIP", "CREATE SRCELL x")
	if _, err := sv.Do("b", "REPLAY j"); err == nil || !strings.Contains(err.Error(), `cell "CHIP" is under edit by session "a"`) {
		t.Fatalf("replayed EDIT of a leased cell not refused: %v", err)
	}
	if sh, _ := sv.Shell("b"); sh.Editor != nil {
		t.Fatalf("the refused replay left b editing %s", sh.Editor.Cell.Name)
	}
	if got := sv.Sessions(); len(got) != 2 || got[0] != "a main editing CHIP" || got[1] != "b main" {
		t.Fatalf("sessions after the refused replay: %q", got)
	}
	// once a ends its edit, b's replay takes the cell
	mustDo(t, sv, "a", "ENDEDIT")
	mustDo(t, sv, "b", "REPLAY j")
	if _, err := sv.Do("a", "EDIT CHIP"); err == nil || !strings.Contains(err.Error(), `under edit by session "b"`) {
		t.Fatalf("b's replayed EDIT took no lease: %v", err)
	}
}

// TestConcurrentReplay replays every session's differential script
// through REPLAY, concurrently over one shared design and then
// single-threaded on a fresh server: each session's output must be
// identical, as each replayed line takes only its own command's lock.
func TestConcurrentReplay(t *testing.T) {
	const n = 4
	run := func(concurrent bool) []string {
		sv, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		outs := make([]string, n)
		for i := 0; i < n; i++ {
			sid := fmt.Sprintf("s%d", i)
			if err := sv.Open(sid, "shared"); err != nil {
				t.Fatal(err)
			}
			writeJournal(t, sv, sid, "j", sessionScript(i)...)
		}
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			do := func(i int) {
				out, err := sv.Do(fmt.Sprintf("s%d", i), "REPLAY j")
				if err != nil {
					t.Errorf("s%d: %v", i, err)
				}
				outs[i] = out
			}
			if !concurrent {
				do(i)
				continue
			}
			wg.Add(1)
			go func(i int) { defer wg.Done(); do(i) }(i)
		}
		wg.Wait()
		return outs
	}
	concurrent, sequential := run(true), run(false)
	for i := range concurrent {
		if concurrent[i] != sequential[i] {
			t.Errorf("session %d replay diverged under concurrency:\n--- concurrent ---\n%s--- sequential ---\n%s", i, concurrent[i], sequential[i])
		}
	}
}

// TestServeProtocol drives the line protocol end to end: session
// lifecycle, command routing, error reporting, stats.
func TestServeProtocol(t *testing.T) {
	sv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader(strings.Join([]string{
		"OPEN a",
		"ON a EDIT CHIP",
		"ON a CREATE SRCELL s ARRAY 2 2",
		"ON a LVS CHIP",
		"OPEN b",
		"ON b EDIT CHIP", // lease conflict -> ?-line
		"SESSIONS",
		"ON nosuch LVS CHIP", // unknown session -> ?-line
		"BOGUS",              // unknown directive -> ?-line
		"CLOSE b",
		"STATS",
		"QUIT",
		"ON a LVS CHIP", // after QUIT: never reached
	}, "\n"))
	var out strings.Builder
	if err := sv.Serve(in, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"opened a",
		"editing CHIP",
		"CHIP: netlists match",
		`?serve: cell "CHIP" is under edit by session "a"`,
		"a main editing CHIP",
		`?serve: no session "nosuch"`,
		"?serve: unknown directive",
		"closed b",
		"serve: sessions=1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("protocol output missing %q:\n%s", want, got)
		}
	}
	if strings.Count(got, "netlists match") != 1 {
		t.Error("command after QUIT was executed")
	}
}

// TestServeSnapshotAggregates checks the server snapshot sums the
// per-session pipeline counters and reports the store once.
func TestServeSnapshotAggregates(t *testing.T) {
	sv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		sid := fmt.Sprintf("s%d", i)
		if err := sv.Open(sid, "d"); err != nil {
			t.Fatal(err)
		}
		mustDo(t, sv, sid, fmt.Sprintf("EDIT C%d", i))
		mustDo(t, sv, sid, "CREATE SRCELL a ARRAY 2 2")
		mustDo(t, sv, sid, fmt.Sprintf("DRC C%d", i))
	}
	snap := sv.Snapshot()
	if v, _ := snap.Get("serve", "sessions"); v != 2 {
		t.Fatalf("serve.sessions = %d", v)
	}
	var runs int64
	for i := 0; i < 2; i++ {
		ss, _ := sv.SessionSnapshot(fmt.Sprintf("s%d", i))
		v, _ := ss.Get("verify", "hier")
		runs += v
	}
	if v, _ := snap.Get("verify", "hier"); v != runs {
		t.Fatalf("aggregate verify.hier = %d, want sum of sessions %d", v, runs)
	}
	storeCount := 0
	for _, sec := range snap.Sections {
		if sec.Name == "store" {
			storeCount++
		}
	}
	if storeCount != 1 {
		t.Fatalf("store section appears %d times in the aggregate", storeCount)
	}
}

// TestServeDiskTier checks a CacheDir-backed server starts warm across
// restarts: a second server over the same directory serves the first
// server's certificates from disk through the shared tier.
func TestServeDiskTier(t *testing.T) {
	dir := t.TempDir()
	script := []string{"EDIT CHIP", "CREATE SRCELL a ARRAY 3 3", "LVS CHIP"}

	sv1, err := New(Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := sv1.Open("a", ""); err != nil {
		t.Fatal(err)
	}
	for _, c := range script {
		mustDo(t, sv1, "a", c)
	}

	sv2, err := New(Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := sv2.Open("a", ""); err != nil {
		t.Fatal(err)
	}
	for _, c := range script {
		mustDo(t, sv2, "a", c)
	}
	sh, _ := sv2.Shell("a")
	if built := sh.Verifier.HierStats().CertBuilt; built != 0 {
		t.Fatalf("restarted server rebuilt %d certificate(s); want 0 (disk tier)", built)
	}
	if sv2.disk.Stats().Hits == 0 {
		t.Fatal("restarted server never read the disk tier")
	}
}

// BenchmarkServeSessions measures sessions per second: each iteration
// opens a session, assembles an array, verifies it with LVS and
// closes. "cold" uses a fresh server per iteration (no shared state);
// "warm" runs every iteration against one server whose shared store the
// first iteration primed — the multi-tenant steady state.
func BenchmarkServeSessions(b *testing.B) {
	runSession := func(sv *Server, sid string) {
		// each session assembles its own cell; the array content is
		// identical, so the shared store warms across cells and sessions
		cell := "CHIP_" + sid
		script := []string{"EDIT " + cell, "CREATE SRCELL a ARRAY 16 16", "LVS " + cell}
		if err := sv.Open(sid, "d"); err != nil {
			b.Fatal(err)
		}
		for _, c := range script {
			if _, err := sv.Do(sid, c); err != nil {
				b.Fatalf("%s: %v", c, err)
			}
		}
		if err := sv.Close(sid); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sv, err := New(Options{})
			if err != nil {
				b.Fatal(err)
			}
			runSession(sv, "s")
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
	})
	b.Run("shared-warm", func(b *testing.B) {
		sv, err := New(Options{})
		if err != nil {
			b.Fatal(err)
		}
		runSession(sv, "prime")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runSession(sv, fmt.Sprintf("s%d", i))
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
	})
}
