package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"riot/internal/castore"
)

var update = flag.Bool("update", false, "rewrite the golden stats files")

// grid builds an abutting SRCELL array entirely from library files, so
// the CLI tests need nothing on disk.
const grid = "READ srcell.sticks; EDIT CHIP; CREATE SRCELL a ARRAY 4 4"

// execRun drives the CLI entry point with captured streams and an
// empty stdin (interactive mode exits immediately on EOF).
func execRun(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(""), &out, &errb)
	t.Logf("riot %q -> %d\nstdout: %s\nstderr: %s", args, code, out.String(), errb.String())
	return code, out.String(), errb.String()
}

// TestExitCodeMatrix pins the exit-code contract over the broken-input
// space: 0 for a passing run, 1 when the design fails verification,
// 2 when the invocation itself is unusable — with a one-line
// diagnostic on stderr for every 2.
func TestExitCodeMatrix(t *testing.T) {
	t.Chdir(t.TempDir())
	cases := []struct {
		name      string
		args      []string
		code      int
		errNeedle string // wanted in stderr (exit 2 cases)
		outNeedle string // wanted in stdout
	}{
		{name: "clean lvs", args: []string{"-c", grid, "-lvs", "CHIP"},
			code: exitOK, outNeedle: "netlists match"},
		{name: "clean drc", args: []string{"-c", grid, "-drc", "CHIP"},
			code: exitOK, outNeedle: "no design-rule violations"},
		{name: "clean extract", args: []string{"-c", grid, "-extract", "CHIP"},
			code: exitOK, outNeedle: "transistor(s)"},
		// b parked one lambda above a: disconnected rails within
		// spacing range of each other
		{name: "drc violations", args: []string{"-c", "READ srcell.sticks; EDIT CHIP; CREATE SRCELL a AT 0 0; CREATE SRCELL b AT 0 25", "-drc", "CHIP"},
			code: exitVerify, outNeedle: "design-rule violation(s)"},
		{name: "unknown flag", args: []string{"-no-such-flag"},
			code: exitConfig, errNeedle: "flag provided but not defined"},
		{name: "positional argument", args: []string{"stray"},
			code: exitConfig, errNeedle: "unexpected argument"},
		{name: "f and c together", args: []string{"-f", "x.riot", "-c", "HELP"},
			code: exitConfig, errNeedle: "mutually exclusive"},
		{name: "missing script", args: []string{"-f", "no-such-script.riot"},
			code: exitConfig, errNeedle: "no-such-script.riot"},
		{name: "bad command", args: []string{"-c", "FROBNICATE CHIP"},
			code: exitConfig, errNeedle: "unknown command"},
		{name: "drc unknown cell", args: []string{"-c", grid, "-drc", "NOPE"},
			code: exitConfig, errNeedle: `no cell "NOPE"`},
		{name: "lvs unknown cell", args: []string{"-c", grid, "-lvs", "NOPE"},
			code: exitConfig, errNeedle: `no cell "NOPE"`},
		{name: "extract unknown cell", args: []string{"-c", grid, "-extract", "NOPE"},
			code: exitConfig, errNeedle: `no cell "NOPE"`},
		{name: "screenshot without editor", args: []string{"-c", "READ srcell.sticks", "-screenshot", "out.ppm"},
			code: exitConfig, errNeedle: "needs a cell under edit"},
		{name: "bad workstation", args: []string{"-c", grid, "-screenshot", "out.ppm", "-workstation", "vt52"},
			code: exitConfig, errNeedle: "unknown workstation"},
		{name: "unusable cache dir", args: []string{"-cache", "/proc/1/no-such-cache", "-c", "HELP"},
			code: exitConfig, errNeedle: "cache"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := execRun(t, tc.args...)
			if code != tc.code {
				t.Fatalf("exit code = %d, want %d", code, tc.code)
			}
			if tc.errNeedle != "" && !strings.Contains(errOut, tc.errNeedle) {
				t.Errorf("stderr %q does not contain %q", errOut, tc.errNeedle)
			}
			if tc.outNeedle != "" && !strings.Contains(out, tc.outNeedle) {
				t.Errorf("stdout %q does not contain %q", out, tc.outNeedle)
			}
			if code == exitConfig {
				if lines := strings.Count(strings.TrimSpace(errOut), "\n"); lines > 2 {
					t.Errorf("config error produced %d stderr lines, want a short diagnostic:\n%s", lines+1, errOut)
				}
			}
		})
	}
}

// statsJSON extracts and parses the -stats=json object from a run's
// stdout (the last line).
func statsJSON(t *testing.T, out string) map[string]map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	var snap map[string]map[string]any
	if err := json.Unmarshal([]byte(last), &snap); err != nil {
		t.Fatalf("stats line %q is not a JSON object: %v", last, err)
	}
	return snap
}

// counter reads one numeric stat from a parsed snapshot.
func counter(t *testing.T, snap map[string]map[string]any, section, key string) float64 {
	t.Helper()
	sec, ok := snap[section]
	if !ok {
		t.Fatalf("stats missing section %q: %v", section, snap)
	}
	v, ok := sec[key].(float64)
	if !ok {
		t.Fatalf("stats section %q missing numeric %q: %v", section, key, sec)
	}
	return v
}

// TestCacheWarmStart runs the same -lvs check twice over one cache
// directory and asserts the second invocation loads the hier
// certificate from the persistent store and writes nothing, that LVS
// extracts its one leaf in process on both runs, that the store holds
// the hier family alone, and that neither run takes a flat run — the
// CLI-level shape the CI warm-start job checks through -stats=json.
func TestCacheWarmStart(t *testing.T) {
	t.Chdir(t.TempDir())
	cache := filepath.Join(t.TempDir(), "cache")

	code, out, _ := execRun(t, "-cache", cache, "-c", grid, "-lvs", "CHIP", "-stats=json")
	if code != exitOK {
		t.Fatalf("cold run exit = %d", code)
	}
	snap := statsJSON(t, out)
	if got := counter(t, snap, "lvs", "leaves_extracted"); got != 1 {
		t.Fatalf("cold run extracted %v leaves, want 1:\n%s", got, out)
	}
	if got := counter(t, snap, "castore", "puts"); got != 1 {
		t.Errorf("cold run stored %v entries, want 1 (the leaf's hier certificate):\n%s", got, out)
	}
	noFlatten(t, "cold", snap, out)
	portLabels(t, "cold", snap, out)

	code, out, _ = execRun(t, "-cache", cache, "-c", grid, "-lvs", "CHIP", "-stats=json")
	if code != exitOK {
		t.Fatalf("warm run exit = %d", code)
	}
	snap = statsJSON(t, out)
	if got := counter(t, snap, "lvs", "leaves_extracted"); got != 1 {
		t.Errorf("warm run extracted %v leaves, want 1 (LVS derives in process):\n%s", got, out)
	}
	if got := counter(t, snap, "castore", "puts"); got != 0 {
		t.Errorf("warm run stored %v entries, want 0:\n%s", got, out)
	}
	if got := counter(t, snap, "hier", "cert_disk_hits"); got != 1 {
		t.Errorf("warm run loaded %v certificate(s) from disk, want 1:\n%s", got, out)
	}
	noFlatten(t, "warm", snap, out)
	portLabels(t, "warm", snap, out)
	if got := counter(t, snap, "castore", "corrupt"); got != 0 {
		t.Errorf("warm run reported corruption (%v):\n%s", got, out)
	}
	if !strings.Contains(out, "netlists match") {
		t.Errorf("warm run verdict missing:\n%s", out)
	}
	// the store holds one family: no LVS namespace was ever written
	for _, ns := range []string{"lvsref", "lvscert"} {
		if _, err := os.Stat(filepath.Join(cache, ns)); !os.IsNotExist(err) {
			t.Errorf("cache holds a %s/ directory (stat: %v); LVS must persist nothing", ns, err)
		}
	}
}

// TestReferenceTemplatesFlat pins that the LVS reference of an array
// is template-driven: every ARRAY derives one pair template per
// touching neighbour offset of the arrayed cell (E, N and both
// diagonals), however many copies it has. An 8x8 and a 12x12 array,
// under the fast path's smallest side, stitch their copies, which
// replay those templates; a 16x16 and a 32x32 array, which the fast
// path composes, are settled by the template witness, and no copy pair
// replays one.
func TestReferenceTemplatesFlat(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, tc := range []struct {
		n        string
		template bool
	}{{"8", false}, {"12", false}, {"16", true}, {"32", true}} {
		n := tc.n
		script := "READ srcell.sticks; EDIT CHIP; CREATE SRCELL a ARRAY " + n + " " + n
		code, out, _ := execRun(t, "-c", script, "-lvs", "CHIP", "-stats=json")
		if code != exitOK {
			t.Fatalf("%sx%s: exit = %d", n, n, code)
		}
		snap := statsJSON(t, out)
		if got := counter(t, snap, "lvs", "ref_templates_built"); got != 4 {
			t.Errorf("%sx%s: built %v reference templates, want 4:\n%s", n, n, got, out)
		}
		hits, settled := counter(t, snap, "lvs", "ref_template_hits"), counter(t, snap, "lvs", "template_certified")
		if tc.template && (hits != 0 || settled != 1) {
			t.Errorf("%sx%s: %v copy pair(s) replayed a template, %v check(s) settled by template; want 0 and 1:\n%s", n, n, hits, settled, out)
		}
		if !tc.template && (hits == 0 || settled != 0) {
			t.Errorf("%sx%s: %v copy pair(s) replayed a template, %v check(s) settled by template; want some and 0:\n%s", n, n, hits, settled, out)
		}
	}
}

// noFlatten asserts the hierarchical engine served the run's verifies
// and no scratch flat run happened.
func noFlatten(t *testing.T, run string, snap map[string]map[string]any, out string) {
	t.Helper()
	if got := counter(t, snap, "verify", "full"); got != 0 {
		t.Errorf("%s run: %v scratch flat run(s), want 0:\n%s", run, got, out)
	}
	if got := counter(t, snap, "verify", "hier"); got == 0 {
		t.Errorf("%s run: no verify served by the hierarchical engine:\n%s", run, out)
	}
}

// portLabels asserts a run materialized every label from certificate
// port tables, with no spatial query.
func portLabels(t *testing.T, run string, snap map[string]map[string]any, out string) {
	t.Helper()
	if got := counter(t, snap, "hier", "labels_context"); got != 0 {
		t.Errorf("%s run: %v label(s) took the spatial query, want 0:\n%s", run, got, out)
	}
	if got := counter(t, snap, "hier", "labels_local"); got == 0 {
		t.Errorf("%s run: no label came from a port table:\n%s", run, out)
	}
}

// TestStatsGolden pins the exact -stats text and -stats=json output of
// a deterministic DRC run against golden files: the field set, the
// section ordering and the counter values are the machine-readable
// contract (go test ./cmd/riot -run StatsGolden -update rewrites them).
func TestStatsGolden(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	goldenDir := filepath.Join(wd, "testdata")
	t.Chdir(t.TempDir())
	for _, tc := range []struct {
		name   string
		flag   string
		golden string
	}{
		{"text", "-stats", "stats_text.golden"},
		{"json", "-stats=json", "stats_json.golden"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := execRun(t, "-c", grid, "-drc", "CHIP", tc.flag)
			if code != exitOK {
				t.Fatalf("exit = %d, stderr %s", code, errOut)
			}
			// the stats block follows the DRC verdict line
			i := strings.Index(out, "no design-rule violations\n")
			if i < 0 {
				t.Fatalf("verdict line missing:\n%s", out)
			}
			got := out[i+len("no design-rule violations\n"):]
			path := filepath.Join(goldenDir, tc.golden)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got != string(want) {
				t.Errorf("stats output drifted from %s:\ngot:\n%swant:\n%s", tc.golden, got, want)
			}
		})
	}
}

// TestStatsRequiresWork pins the satellite contract: -stats in any mode
// that verified something reports, and -stats with nothing verified is
// a broken invocation (exit 2), not a silent no-op.
func TestStatsRequiresWork(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"drc", []string{"-c", grid, "-drc", "CHIP", "-stats"}},
		{"extract", []string{"-c", grid, "-extract", "CHIP", "-stats"}},
		{"lvs", []string{"-c", grid, "-lvs", "CHIP", "-stats"}},
		{"script", []string{"-c", grid + "; DRC", "-stats"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := execRun(t, tc.args...)
			if code != exitOK {
				t.Fatalf("exit = %d, stderr %s", code, errOut)
			}
			if !strings.Contains(out, "verify: cached=") {
				t.Errorf("-stats printed nothing for %s:\n%s", tc.name, out)
			}
		})
	}
	code, _, errOut := execRun(t, "-c", grid, "-stats")
	if code != exitConfig {
		t.Fatalf("-stats with no verification: exit = %d, want %d", code, exitConfig)
	}
	if !strings.Contains(errOut, "no verification ran") {
		t.Errorf("missing diagnostic: %q", errOut)
	}
}

// TestStatsSurfacesAgree runs the shell STATS JSON command and the
// -stats=json flag in one invocation with no verification between them
// and pins byte-identical output — the CLI side of the three-surface
// identity (Session.Snapshot is pinned in the riot package tests).
func TestStatsSurfacesAgree(t *testing.T) {
	t.Chdir(t.TempDir())
	code, out, errOut := execRun(t, "-c", grid+"; DRC; STATS JSON", "-stats=json")
	if code != exitOK {
		t.Fatalf("exit = %d, stderr %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 {
		t.Fatalf("want STATS JSON and -stats=json lines:\n%s", out)
	}
	shellLine, flagLine := lines[len(lines)-2], lines[len(lines)-1]
	if !strings.HasPrefix(shellLine, "{") || shellLine != flagLine {
		t.Errorf("STATS JSON and -stats=json disagree:\nshell: %s\nflag:  %s", shellLine, flagLine)
	}
}

// TestTraceFlag pins -trace end to end: the file exists, parses as
// Chrome trace-event JSON, and contains the pipeline's top span.
func TestTraceFlag(t *testing.T) {
	t.Chdir(t.TempDir())
	code, _, errOut := execRun(t, "-c", grid, "-lvs", "CHIP", "-trace", "trace.json")
	if code != exitOK {
		t.Fatalf("exit = %d, stderr %s", code, errOut)
	}
	data, err := os.ReadFile("trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"lvs", "verify", "hier", "match"} {
		if !names[want] {
			t.Errorf("trace missing span %q (events: %v)", want, names)
		}
	}
}

// TestInteractiveEOF pins that an interactive session exits 0 on EOF
// and on QUIT, without touching the verification paths.
func TestInteractiveEOF(t *testing.T) {
	t.Chdir(t.TempDir())
	var out, errb bytes.Buffer
	if code := run(nil, strings.NewReader("HELP\nQUIT\n"), &out, &errb); code != exitOK {
		t.Fatalf("interactive exit = %d, stderr %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "riot>") {
		t.Errorf("no prompt printed:\n%s", out.String())
	}
}

// TestTamperedCacheStats pins the tamper-then-stats contract: damaging
// every persistent-store entry between two runs must not change the
// verdict — the store rejects, quarantines and recomputes — and the
// corruption must be visible in the -stats counters.
func TestTamperedCacheStats(t *testing.T) {
	t.Chdir(t.TempDir())
	cache := filepath.Join(t.TempDir(), "cache")

	if code, _, _ := execRun(t, "-cache", cache, "-c", grid, "-lvs", "CHIP", "-stats"); code != exitOK {
		t.Fatalf("cold run exit = %d", code)
	}
	n, err := castore.TamperEntries(cache, castore.TamperBitFlip)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing to tamper: the cold run persisted no entries")
	}

	code, out, _ := execRun(t, "-cache", cache, "-c", grid, "-lvs", "CHIP", "-stats=json")
	if code != exitOK {
		t.Fatalf("tampered run exit = %d; corruption must degrade, not fail", code)
	}
	if !strings.Contains(out, "netlists match") {
		t.Errorf("tampered run verdict missing:\n%s", out)
	}
	snap := statsJSON(t, out)
	if got := counter(t, snap, "castore", "corrupt"); got == 0 {
		t.Errorf("tampered run reported zero corruption after %d tampered entries:\n%s", n, out)
	}
	if got := counter(t, snap, "castore", "quarantined"); got == 0 {
		t.Errorf("tampered run quarantined nothing after %d tampered entries:\n%s", n, out)
	}
}

// TestFaultsFlag pins the -faults plumbing end to end: a bad spec is a
// broken invocation; an armed decline fault keeps the verdict, falls
// back flat and surfaces in -stats as a fire count and a structured
// decline condition.
func TestFaultsFlag(t *testing.T) {
	t.Chdir(t.TempDir())

	code, _, errOut := execRun(t, "-faults", "no-such-point", "-c", grid, "-lvs", "CHIP")
	if code != exitConfig || !strings.Contains(errOut, "unknown fault point") {
		t.Fatalf("bad spec: exit %d, stderr %q", code, errOut)
	}

	for _, tc := range []struct {
		spec    string
		point   string
		decline string
	}{
		// the corner placement's pairs read as fragmentation poison
		{"template-poison=0", "template-poison", "poison"},
		// every SRCELL certificate reads as needing flat context
		{"cert-pend=SRCELL", "cert-pend", "pend"},
	} {
		code, out, _ := execRun(t, "-faults", tc.spec, "-c", grid, "-lvs", "CHIP", "-stats=json")
		if code != exitOK {
			t.Fatalf("%s: run exit = %d", tc.spec, code)
		}
		if !strings.Contains(out, "netlists match") {
			t.Errorf("%s: verdict missing:\n%s", tc.spec, out)
		}
		snap := statsJSON(t, out)
		if got := counter(t, snap, "faults", tc.point); got == 0 {
			t.Errorf("%s: fault fire count missing from -stats:\n%s", tc.spec, out)
		}
		if d, ok := snap["hier"]["decline"].(string); !ok || d != tc.decline {
			t.Errorf("%s: structured decline = %v, want %s:\n%s", tc.spec, snap["hier"]["decline"], tc.decline, out)
		}
		if got := counter(t, snap, "verify", "full"); got == 0 {
			t.Errorf("%s: declined run not served by the flat path:\n%s", tc.spec, out)
		}
	}
}
