package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestSpanNesting pins the Begin/End stack discipline: Begin nests
// under the innermost open span, End pops, Child attaches without
// touching the stack.
func TestSpanNesting(t *testing.T) {
	tr := NewTrace()
	root := tr.Begin("verify")
	a := tr.Begin("flatten")
	sh := a.Child("shard x")
	sh.End()
	a.End()
	b := tr.Begin("extract")
	b.End()
	tr.Event(EventDecline, "poison")
	root.End()
	after := tr.Begin("second")
	after.End()

	roots := tr.Roots()
	if len(roots) != 2 || roots[0].Name() != "verify" || roots[1].Name() != "second" {
		t.Fatalf("roots = %v", names(roots))
	}
	kids := roots[0].Children()
	if len(kids) != 2 || kids[0].Name() != "flatten" || kids[1].Name() != "extract" {
		t.Fatalf("children of verify = %v", names(kids))
	}
	if got := kids[0].Children(); len(got) != 1 || got[0].Name() != "shard x" {
		t.Fatalf("children of flatten = %v", names(got))
	}
	// the decline event fired while only "verify" was open
	evs := roots[0].Events()
	if len(evs) != 1 || evs[0].Kind != EventDecline || evs[0].Detail != "poison" {
		t.Fatalf("verify events = %v", evs)
	}
	if roots[0].Find("shard x") == nil {
		t.Fatal("Find failed to locate the shard span")
	}
}

// TestEndPopsDanglingChildren pins the robustness rule: ending a span
// whose descendants missed their End still unwinds the stack to it.
func TestEndPopsDanglingChildren(t *testing.T) {
	tr := NewTrace()
	root := tr.Begin("verify")
	tr.Begin("inner") // never ended
	root.End()
	next := tr.Begin("next")
	next.End()
	roots := tr.Roots()
	if len(roots) != 2 || roots[1].Name() != "next" {
		t.Fatalf("roots = %v (dangling inner span kept the stack dirty)", names(roots))
	}
}

// TestDisabledTraceAllocates pins the disabled trace's hot-path cost:
// every call on a nil trace/span must allocate nothing.
func TestDisabledTraceAllocates(t *testing.T) {
	var tr *Trace
	n := testing.AllocsPerRun(1000, func() {
		sp := tr.Begin("verify")
		c := sp.Child("shard")
		c.Note("k", "v")
		c.End()
		sp.Event(EventCorrupt, "c")
		tr.Event(EventDecline, "d")
		sp.End()
		if tr.Enabled() {
			t.Fatal("nil trace claims enabled")
		}
	})
	if n != 0 {
		t.Fatalf("disabled trace allocates %.1f objects per op, want 0", n)
	}
}

// TestChildConcurrent exercises the concurrent fan-out attachment
// under the race detector.
func TestChildConcurrent(t *testing.T) {
	tr := NewTrace()
	root := tr.Begin("flatten")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sp := root.Child("shard")
				sp.Event(EventLog, "x")
				sp.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := len(tr.Roots()[0].Children()); got != 400 {
		t.Fatalf("got %d children, want 400", got)
	}
}

// TestWriteChrome pins that the export is valid JSON with the expected
// top span and that overlapping children get distinct lanes.
func TestWriteChrome(t *testing.T) {
	tr := NewTrace()
	root := tr.Begin("verify")
	root.Note("cell", "CHIP")
	a := root.Child("shard a")
	b := root.Child("shard b") // overlaps a: same parent, a still open
	a.End()
	b.End()
	tr.Event(EventCorrupt, "bad entry")
	root.End()

	var sb strings.Builder
	if err := tr.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, sb.String())
	}
	byName := map[string]int{}
	lanes := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byName[ev.Name]++
		lanes[ev.Name] = ev.Tid
	}
	if byName["verify"] != 1 || byName["shard a"] != 1 || byName["shard b"] != 1 || byName[EventCorrupt] != 1 {
		t.Fatalf("unexpected event set: %v", byName)
	}
	if lanes["shard a"] == lanes["shard b"] {
		t.Fatalf("overlapping siblings share lane %d", lanes["shard a"])
	}
	if doc.TraceEvents[0].Args["cell"] != "CHIP" {
		t.Fatalf("root span lost its note: %v", doc.TraceEvents[0].Args)
	}
}

// TestRegistrySnapshot pins section ordering, idempotent registration,
// nil-provider omission, and the two renderings.
func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	runs := 0
	r.Register("verify", func() []Item { return []Item{N("full", runs), N("cached", 0)} })
	r.Register("hier", func() []Item { return []Item{N("runs", 2), S("last_decline", "none")} })
	r.Register("castore", func() []Item { return nil }) // not attached
	r.Register("verify", func() []Item { return []Item{N("full", runs)} })

	runs = 3
	snap := r.Snapshot()
	if len(snap.Sections) != 2 || snap.Sections[0].Name != "verify" || snap.Sections[1].Name != "hier" {
		t.Fatalf("sections = %+v", snap.Sections)
	}
	if v, ok := snap.Get("verify", "full"); !ok || v != 3 {
		t.Fatalf("verify.full = %d,%v (provider not live)", v, ok)
	}
	wantText := "verify: full=3\nhier: runs=2 last_decline=none\n"
	if got := snap.Text(); got != wantText {
		t.Fatalf("Text:\n got %q\nwant %q", got, wantText)
	}
	wantJSON := `{"verify":{"full":3},"hier":{"runs":2,"last_decline":"none"}}`
	if got := string(snap.JSON()); got != wantJSON {
		t.Fatalf("JSON:\n got %s\nwant %s", got, wantJSON)
	}
	if !json.Valid(snap.JSON()) {
		t.Fatal("JSON output invalid")
	}
}

// TestTraceLogger pins that a trace-bound logger both records and
// forwards.
func TestTraceLogger(t *testing.T) {
	tr := NewTrace()
	var lines []string
	lg := tr.Logger(func(format string, args ...any) { lines = append(lines, format) })
	sp := tr.Begin("verify")
	lg("castore: %s corrupt", "x")
	sp.End()
	if len(lines) != 1 {
		t.Fatalf("forwarded %d lines, want 1", len(lines))
	}
	evs := tr.Roots()[0].Events()
	if len(evs) != 1 || evs[0].Kind != EventLog || evs[0].Detail != "castore: x corrupt" {
		t.Fatalf("events = %v", evs)
	}
}

func names(sps []*Span) []string {
	var out []string
	for _, sp := range sps {
		out = append(out, sp.Name())
	}
	return out
}
