// Package obs is the verification pipeline's observability substrate:
// a span/metrics layer every engine threads its accounting through so
// each run can be traced, every surface (shell STATS, riot -stats,
// Session.Snapshot) reports the same numbers, and library consumers
// can capture or silence the pipeline's diagnostics.
//
// The package has three pieces:
//
//   - Trace/Span: a nested timing tree of one or more verification
//     runs, plus typed instant Events (declines, quarantines, cache
//     corruption). A nil *Trace is the disabled state and costs
//     near-zero on the hot path: every method is nil-safe, and call
//     sites with dynamic names or formatted details guard on
//     Enabled() so the disabled path neither formats nor allocates
//     (pinned by TestDisabledTraceAllocates and the hier scale
//     benchmark).
//   - Registry/Snapshot: named sections of ordered counters pulled
//     from the engines' live Stats structs on demand. One Registry
//     per session; every stats surface renders the same Snapshot, in
//     the same order, as human text or machine JSON.
//   - Logger: the injectable destination for the pipeline's
//     noteworthy-event lines (castore quarantines, hier declines).
//     The default is stderr; consumers set Discard to silence or a
//     capture func to test.
//
// Concurrency: Begin/End maintain a current-span stack and assume the
// pipeline's single-threaded call discipline (one Verify at a time);
// concurrent sub-work must attach through Span.Child, which is
// mutex-protected and stack-independent.
package obs

import (
	"sync"
	"time"
)

// Event kinds recorded by the pipeline. Kind is an open string — these
// are the ones the engines emit today.
const (
	EventDecline    = "decline"    // hierarchical engine declined (whole or to flat)
	EventQuarantine = "quarantine" // placements served by partial degradation
	EventCorrupt    = "corrupt"    // persistent-store entry failed validation
	EventLog        = "log"        // a logger line captured into the trace
)

// Event is one instant (zero-duration) occurrence inside a span.
type Event struct {
	Kind   string
	Detail string
	At     time.Duration // offset from the trace start
}

// Note is one key/value annotation on a span.
type Note struct{ Key, Value string }

// Trace records one session's span tree. The nil *Trace is the
// disabled trace: every method no-ops, so engines hold an optional
// *Trace without guarding call sites (sites that would format a
// dynamic name guard on Enabled instead).
type Trace struct {
	mu         sync.Mutex
	start      time.Time
	roots      []*Span
	rootEvents []Event // events recorded with no span open
	stack      []*Span // innermost open Begin-span last
}

// NewTrace returns an enabled, empty trace. The zero time base is set
// here; span offsets are monotonic durations from it.
func NewTrace() *Trace { return &Trace{start: time.Now()} }

// Enabled reports whether the trace records anything. Call sites that
// build dynamic span names or event details must guard on it so the
// disabled path stays allocation-free.
func (t *Trace) Enabled() bool { return t != nil }

// Begin opens a span nested under the innermost span still open from a
// previous Begin (or at the top level). It assumes the pipeline's
// single-threaded call discipline; concurrent sub-work must use
// Span.Child instead. Begin on a nil trace returns a nil span, whose
// methods all no-op.
func (t *Trace) Begin(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &Span{t: t, name: name, start: time.Since(t.start), end: -1}
	if n := len(t.stack); n > 0 {
		p := t.stack[n-1]
		p.mu.Lock()
		p.children = append(p.children, sp)
		p.mu.Unlock()
	} else {
		t.roots = append(t.roots, sp)
	}
	t.stack = append(t.stack, sp)
	return sp
}

// Event records an instant event on the innermost open span (or at the
// top level when none is open).
func (t *Trace) Event(kind, detail string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ev := Event{Kind: kind, Detail: detail, At: time.Since(t.start)}
	if n := len(t.stack); n > 0 {
		sp := t.stack[n-1]
		sp.events = append(sp.events, ev)
		return
	}
	t.rootEvents = append(t.rootEvents, ev)
}

// Roots returns the top-level spans recorded so far.
func (t *Trace) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// RootEvents returns events recorded with no span open.
func (t *Trace) RootEvents() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.rootEvents...)
}

// Logger returns a Logger that records each line as an EventLog trace
// event and forwards to next (which may be nil to only trace).
func (t *Trace) Logger(next Logger) Logger {
	return func(format string, args ...any) {
		if t != nil {
			t.Event(EventLog, sprintf(format, args...))
		}
		if next != nil {
			next(format, args...)
		}
	}
}

// Span is one timed region of a trace. The nil *Span no-ops every
// method, so disabled traces propagate without guards.
type Span struct {
	t          *Trace
	name       string
	start, end time.Duration // offsets from the trace start; end<0 while open

	mu       sync.Mutex
	children []*Span
	events   []Event
	notes    []Note
}

// Child opens a sub-span under sp without touching the trace's span
// stack — the attachment point for concurrent work, safe to call from
// multiple goroutines.
func (sp *Span) Child(name string) *Span {
	if sp == nil {
		return nil
	}
	c := &Span{t: sp.t, name: name, start: time.Since(sp.t.start), end: -1}
	sp.mu.Lock()
	sp.children = append(sp.children, c)
	sp.mu.Unlock()
	return c
}

// End closes the span. A span opened with Begin also pops itself (and
// any dangling descendants a missed End left behind) off the trace's
// stack; a Child span just records its end time.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	t := sp.t
	t.mu.Lock()
	if sp.end < 0 {
		sp.end = time.Since(t.start)
	}
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == sp {
			t.stack = t.stack[:i]
			break
		}
	}
	t.mu.Unlock()
}

// Note annotates the span with a key/value pair.
func (sp *Span) Note(key, value string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.notes = append(sp.notes, Note{key, value})
	sp.mu.Unlock()
}

// Event records an instant event on this span specifically.
func (sp *Span) Event(kind, detail string) {
	if sp == nil {
		return
	}
	ev := Event{Kind: kind, Detail: detail, At: time.Since(sp.t.start)}
	sp.mu.Lock()
	sp.events = append(sp.events, ev)
	sp.mu.Unlock()
}

// Name returns the span's name ("" for nil).
func (sp *Span) Name() string {
	if sp == nil {
		return ""
	}
	return sp.name
}

// Start returns the span's start offset from the trace start.
func (sp *Span) Start() time.Duration {
	if sp == nil {
		return 0
	}
	return sp.start
}

// Dur returns the span's duration (0 while still open or for nil).
func (sp *Span) Dur() time.Duration {
	if sp == nil {
		return 0
	}
	sp.t.mu.Lock()
	end := sp.end
	sp.t.mu.Unlock()
	if end < 0 {
		return 0
	}
	return end - sp.start
}

// Children returns the span's sub-spans.
func (sp *Span) Children() []*Span {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return append([]*Span(nil), sp.children...)
}

// Events returns the span's instant events.
func (sp *Span) Events() []Event {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return append([]Event(nil), sp.events...)
}

// Notes returns the span's annotations.
func (sp *Span) Notes() []Note {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return append([]Note(nil), sp.notes...)
}

// Find returns the first span named name in a depth-first search of
// the subtree rooted at sp (including sp itself), or nil.
func (sp *Span) Find(name string) *Span {
	if sp == nil {
		return nil
	}
	if sp.name == name {
		return sp
	}
	for _, c := range sp.Children() {
		if got := c.Find(name); got != nil {
			return got
		}
	}
	return nil
}
