// Package faultinject is the deterministic fault-injection harness for
// the verification pipeline's degradation paths. The pipeline already
// degrades gracefully in several places — the hierarchical engine
// declines a run its certificates cannot compose to the flat path, the
// content-addressed store quarantines corrupt entries and recomputes
// cold — but those edges fire only when real designs happen to hit
// them. A Set arms named fault points so tests (and `riot -faults`)
// can force every edge on demand and differential-test that each one
// degrades to a correct verdict instead of a wrong answer or a panic.
//
// A fault point fires when armed and its match key applies:
//
//	set := faultinject.New()
//	set.Enable(faultinject.CertPend, "SRCELL")  // every SRCELL placement
//	set.EnableN(faultinject.StoreCorrupt, "", 1) // first store read only
//	...
//	if set.Hit(faultinject.CertPend, cell.Name) { ... degrade ... }
//
// Hit is nil-safe (a nil *Set never fires), mutex-protected (the
// castore hook is read from concurrent sessions), and counts fires so
// tests can assert the fault actually triggered rather than silently
// not reaching the code path under test.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Point names one fault site in the pipeline.
type Point string

// The fault points the pipeline exposes. Each one forces a distinct
// degradation edge; the match key's meaning is per-point.
const (
	// CertPend forces a cell's certificate to read as Pend (device
	// terminals need flat context), declining any run that places the
	// cell. Match key: the cell name ("" = every cell).
	CertPend Point = "cert-pend"
	// TemplatePoison forces pair templates involving a placement to
	// read as fragmentation poison, declining any run in which the
	// placement has an interacting partner. Match key: the occurrence
	// index in flatten walk order, as a decimal string ("" = every
	// pair).
	TemplatePoison Point = "template-poison"
	// CertDecode corrupts a hierarchical certificate payload after it
	// leaves the store but before decoding — the decode must fail
	// cleanly, discard the entry and rebuild cold. Match key: the cell
	// name ("" = every certificate).
	CertDecode Point = "cert-decode"
	// StoreCorrupt flips a payload byte on castore reads mid-run,
	// driving the validate→quarantine→recompute path. Match key: the
	// store namespace ("" = every namespace).
	StoreCorrupt Point = "store-corrupt"
	// ComposeBudget makes the hierarchical composition give up before
	// pairing placements, declining the run to the flat path — the one
	// fault that makes the array fast path itself decline. Match key:
	// unused ("" recommended).
	ComposeBudget Point = "compose-budget"
)

// Points lists every defined fault point (the CLI validates specs
// against it).
var Points = []Point{CertPend, TemplatePoison, CertDecode, StoreCorrupt, ComposeBudget}

type arm struct {
	match string
	limit int // 0 = unlimited
	hits  int
}

// Set is a collection of armed fault points. The zero value and the
// nil pointer are valid, permanently-disarmed sets, so call sites can
// hold an optional *Set without guards.
type Set struct {
	mu   sync.Mutex
	arms map[Point][]arm
}

// New returns an empty (disarmed) set.
func New() *Set { return &Set{} }

// Enable arms a fault point with a match key ("" matches every key),
// firing without limit.
func (s *Set) Enable(p Point, match string) { s.EnableN(p, match, 0) }

// EnableN arms a fault point with a match key and a fire limit: after
// limit hits the arm disarms itself (limit 0 = unlimited). Arming the
// same (point, match) again replaces the previous arm.
func (s *Set) EnableN(p Point, match string, limit int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.arms == nil {
		s.arms = map[Point][]arm{}
	}
	for i := range s.arms[p] {
		if s.arms[p][i].match == match {
			s.arms[p][i] = arm{match: match, limit: limit}
			return
		}
	}
	s.arms[p] = append(s.arms[p], arm{match: match, limit: limit})
}

// Hit reports whether the fault point fires for the given key, and
// counts the fire. Nil-safe and safe for concurrent use.
func (s *Set) Hit(p Point, key string) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.arms[p] {
		a := &s.arms[p][i]
		if a.match != "" && a.match != key {
			continue
		}
		if a.limit > 0 && a.hits >= a.limit {
			continue
		}
		a.hits++
		return true
	}
	return false
}

// Hits returns the total fire count of a fault point across its arms.
func (s *Set) Hits(p Point) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for i := range s.arms[p] {
		n += s.arms[p][i].hits
	}
	return n
}

// Reset disarms every fault point and zeroes the counters.
func (s *Set) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arms = nil
}

// String renders the set's arms and fire counts for -stats reports,
// deterministically ordered; an empty set renders as "none".
func (s *Set) String() string {
	if s == nil {
		return "none"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var parts []string
	for p, arms := range s.arms {
		for _, a := range arms {
			d := string(p)
			if a.match != "" {
				d += "=" + a.match
			}
			if a.limit > 0 {
				d += ":" + strconv.Itoa(a.limit)
			}
			parts = append(parts, fmt.Sprintf("%s hit %d time(s)", d, a.hits))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

// Parse builds a set from a comma-separated spec, one arm per item:
//
//	point              arm for every key, unlimited
//	point=match        arm for one key
//	point:n            fire at most n times
//	point=match:n      both
//
// Unknown points are errors — a typo must not silently disarm a fault
// the caller meant to test.
func Parse(spec string) (*Set, error) {
	s := New()
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, match, limit := item, "", 0
		if i := strings.IndexByte(name, '='); i >= 0 {
			name, match = name[:i], name[i+1:]
			if j := strings.IndexByte(match, ':'); j >= 0 {
				n, err := strconv.Atoi(match[j+1:])
				if err != nil || n < 0 {
					return nil, fmt.Errorf("faultinject: bad limit in %q", item)
				}
				match, limit = match[:j], n
			}
		} else if j := strings.IndexByte(name, ':'); j >= 0 {
			n, err := strconv.Atoi(name[j+1:])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faultinject: bad limit in %q", item)
			}
			name, limit = name[:j], n
		}
		known := false
		for _, p := range Points {
			if string(p) == name {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("faultinject: unknown fault point %q", name)
		}
		s.EnableN(Point(name), match, limit)
	}
	return s, nil
}
