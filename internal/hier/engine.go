// Package hier is the hierarchical verification engine: it extracts
// and design-rule-checks each DISTINCT cell once — per orientation —
// into certificates (extract.CellCert, drc.CellDRC), then composes
// placements of those certificates into the whole-design verdict.
// Work scales with the number of distinct cells plus the number of
// placements, not with flattened geometry. For a uniform array, a
// fast path proves the DRC verdict on one fixed 5×5 lattice and so
// drops even the per-placement term; only the circuit, when a caller
// asks for it, composes every copy's connectivity, by lattice
// arithmetic: integer work per copy, no spatial query.
//
// The engine's contract is verdict identity: the composed circuit
// (after the same canonical dense net renumbering) and the composed
// violation set equal the flat extractor's and flat checker's output
// exactly, or the engine declines and the caller falls back to the
// flat path. The composition rules and the arguments for their
// exactness:
//
//   - Translation preserves the flat solver's orders (fragment
//     emission, gate-subtraction piece order, locator tie-breaks), so
//     a placement contributes its certificate's fragments verbatim.
//     Orientation does not — certificates are per (cell, orientation).
//   - Cross-placement connectivity is same-layer fragment touching,
//     a pure function of the pair's relative placement: computed once
//     per (certU, certV, delta) template and replayed per pair.
//   - Contact joins whose resolution depends on context (LayerNone
//     sides, locally-unresolved sides) re-resolve against the placed
//     design: the flat "lowest global fragment" pick distributes over
//     occurrence order because the flat fragment list is
//     occurrence-major.
//   - Width residues have bounded locality: outside every
//     cross-placement interaction window the flat residues equal the
//     translated local ones; inside a window they recompute from all
//     occupants' material. Spacing measures only cross-placement
//     untrusted candidate pairs against a composed touch partition.
//     Contact surround is monotone in added metal, so only locally
//     dirty cuts re-derive.
//   - A placement whose transistor gates overlap another placement's
//     diffusion (or vice versa) would change fragmentation itself;
//     the engine declines ("poison") and the flat path decides. So
//     does a certificate with a device terminal that needs flat
//     context ("pend"): the engine composes exactly or declines the
//     whole run, never part of it.
//
// Retention. The engine keeps the last exact general composition it
// published for a frozen snapshot top, keyed by the top's lineage
// (Cell.Origin), and the next generation of that lineage carries from
// it instead of composing cold:
//
//   - A top-level *Instance both tops hold keeps its occurrence block:
//     a frozen instance never changes, and a leaf whose revision moved
//     (resetMemo) drops the retained state with the memos. Every other
//     block is removed (the old top's) or added (the new top's).
//   - A pair of two surviving occurrences keeps its template, since
//     pair existence and the template are functions of the two
//     certificates, their relative placement and the layer set's
//     reach. Only pairs with an added occurrence are discovered again;
//     a different layer set composes cold.
//   - A surviving pair's width window keeps its pieces when its clip
//     misses the material box of every added occurrence (its new box)
//     and every removed one (its old box): the pieces read only the
//     material of occurrences whose box meets the clip, and that set
//     is unchanged.
//   - What reads the whole design reruns every generation over the
//     carried pairs: the union-find, the deferred joins and the dense
//     renumbering (so a renumbering far from an edit stays exact),
//     every occurrence's residues minus its windows, the spacing touch
//     partition and its candidate checks, surround, the per-layer
//     width merge and the final violation sort.
//
// So a carried result is reused only where its read region misses
// every added or removed occurrence's old and new material box, and
// the carried composition equals a cold one. Live tops never retain
// (their instances mutate in place), and neither do the fast path's
// lattice, a fast-path result's Circuit or a declined run: a decline
// leaves the last exact state as the next run's base. There is one
// compose path; a cold run is that path with nothing carried.
//
// Certificates persist in the content-addressed store under the
// "hiercert" namespace, so a warm restart re-extracts zero certified
// cells.
package hier

import (
	"fmt"
	"slices"
	"sort"

	"riot/internal/castore"
	"riot/internal/core"
	"riot/internal/drc"
	"riot/internal/extract"
	"riot/internal/faultinject"
	"riot/internal/flatten"
	"riot/internal/geom"
	"riot/internal/obs"
	"riot/internal/rules"
)

// Engine holds the certificate and template memos. Not safe for
// concurrent use (one engine per verifier, like the other caches).
type Engine struct {
	memo   map[certKey]*Cert
	tmpl   map[tmplKey]*template
	disk   castore.Blob
	signer *castore.Signer
	stats  Stats
	// certSeq numbers certificates as they enter the memo; window memo
	// keys use the small ids instead of pointers.
	certSeq int
	// winMemo caches width-window residue pieces by the window's
	// translation-invariant signature (layer, window rectangle and
	// occupant pattern relative to the pair's first occurrence) — a
	// lattice repeats a handful of patterns across thousands of pairs.
	winMemo map[string][]geom.Rect
	winKey  []byte // scratch buffer for winMemo keys
	wocc    []int  // scratch buffer for window occupants
	// kept is the last exact general composition published for a
	// frozen top: the next generation of the same lineage carries from
	// it. resetMemo drops it with the memos.
	kept *retained
	// lastDecline records why the most recent Verify declined (nil when
	// it succeeded): fallback diagnostics for -stats and tests.
	lastDecline *Decline

	// Faults is the optional fault-injection set; nil never fires.
	Faults *faultinject.Set
	// Trace, when enabled, records the engine's span tree per Verify
	// (certs, compose, fast) plus typed decline events; nil records
	// nothing and costs nothing.
	Trace *obs.Trace
	// Log receives one line per noteworthy decline (all but the routine
	// not-a-composition); nil means the default obs.Stderr. Set
	// obs.Discard to silence.
	Log obs.Logger
}

// logf routes a noteworthy-event line through the injectable logger
// (default stderr).
func (e *Engine) logf(format string, args ...any) {
	if e.Log != nil {
		e.Log(format, args...)
		return
	}
	obs.Stderr(format, args...)
}

// declined records a decline: the structured record, the fallback
// counter, a typed trace event, and — except for the routine
// not-a-composition case, which fires on every leaf-cell verify — one
// logger line.
func (e *Engine) declined(d *Decline) {
	e.stats.Fallbacks++
	e.lastDecline = d
	if e.Trace.Enabled() {
		e.Trace.Event(obs.EventDecline, d.Error())
	}
	if d.Cond != CondNotComposition {
		e.logf("hier: declined to flat path: %v", d)
	}
}

// LastDeclineInfo reports the most recent Verify's structured decline
// record, or nil when it succeeded.
func (e *Engine) LastDeclineInfo() *Decline { return e.lastDecline }

// Stats counts engine work for the -stats reports and the
// warm-restart tests.
type Stats struct {
	// Runs counts Verify calls; FastRuns those answered by the array
	// fast path; Fallbacks those declined to the flat engines.
	Runs, FastRuns, Fallbacks int
	// CertBuilt counts cold per-cell extract+DRC certificate builds;
	// CertMemoHits and CertDiskHits count reuse; CertStored counts
	// persisted certificates.
	CertBuilt, CertMemoHits, CertDiskHits, CertStored int
	// TemplateBuilt / TemplateHits count pair-interaction templates.
	TemplateBuilt, TemplateHits int
	// LabelsLocal counts label sites materialized from a certificate's
	// port nets; LabelsContext those that took a spatial query (whether
	// or not it found a net).
	LabelsLocal, LabelsContext int
	// Retained counts runs that started from a retained composition.
	// PairsComposed counts pairs discovered afresh, their templates
	// resolved and (in a full compose) their width windows composed: a
	// cold compose counts every pair, a retained one only the pairs of
	// added occurrences.
	Retained, PairsComposed int
}

// Cert pairs one distinct (cell, orientation)'s extraction and DRC
// certificates.
type Cert struct {
	Cell   *core.Cell
	Orient geom.Orient
	X      *extract.CellCert
	D      *drc.CellDRC

	id  int    // engine-local sequence number for memo keys
	rev uint64 // Cell.Revision() when the memo admitted the cert
	// conns is the cell's connector list (Cell.Connectors order) with
	// each point in the oriented local frame; Side stays the
	// untransformed cell side that decides array-edge visibility.
	// portNet[k] is the local net conns[k]'s label names: the lowest
	// fragment on the connector's own layer at its point
	// (CellCert.FindOnLayer, the flat label rule), or -1 when the cell
	// has no material there on that layer, which includes every
	// connector with no layer, since no fragment has none.
	conns   []core.Connector
	portNet []int32
}

type certKey struct {
	cell *core.Cell
	o    geom.Orient
}

// New returns an empty engine.
func New() *Engine {
	e := &Engine{}
	e.ensureMemos()
	return e
}

// ensureMemos makes a zero-value Engine usable: the exported
// configuration fields (Faults, Trace, Log) invite struct-literal
// construction, which would otherwise leave the memo maps nil.
func (e *Engine) ensureMemos() {
	if e.memo == nil {
		e.memo = map[certKey]*Cert{}
	}
	if e.tmpl == nil {
		e.tmpl = map[tmplKey]*template{}
	}
	if e.winMemo == nil {
		e.winMemo = map[string][]geom.Rect{}
	}
}

// AttachDisk connects the engine to a content-addressed store:
// certificates load from and persist to the "hiercert" namespace.
func (e *Engine) AttachDisk(st castore.Blob, sg *castore.Signer) {
	e.disk, e.signer = st, sg
}

// Stats returns the engine's counters.
func (e *Engine) Stats() Stats { return e.stats }

// resetMemo drops the in-memory certificate, template and window
// memos. Store entries stay: they are keyed by content signature, and
// the signer's revision check re-keys a mutated cell on its own.
func (e *Engine) resetMemo() {
	e.memo = map[certKey]*Cert{}
	e.tmpl = map[tmplKey]*template{}
	e.winMemo = map[string][]geom.Rect{}
	e.kept = nil
}

// Verify runs the hierarchical verdict for a composition top. ok is
// false when the engine declines (non-composition top, certificate
// build failure, a pend certificate, fragmentation poison, ...) — the
// caller must fall back to the flat engines, which reproduce whatever
// verdict or error the design deserves.
func (e *Engine) Verify(top *core.Cell) (*Result, bool) {
	e.ensureMemos()
	e.stats.Runs++
	e.lastDecline = nil
	sp := e.Trace.Begin("hier")
	defer sp.End()
	if top == nil || top.Kind != core.Composition {
		e.declined(&Decline{Cond: CondNotComposition, Placement: -1})
		return nil, false
	}
	if sp != nil {
		sp.Note("cell", top.Name)
	}
	if r, ok, err := e.fast(top); err != nil {
		e.declined(declineOf(err))
		return nil, false
	} else if ok {
		e.stats.FastRuns++
		return r, true
	}
	st, err := e.placements(top)
	if err == nil {
		err = e.compose(st, e.carryFor(st))
	}
	if err != nil {
		e.declined(declineOf(err))
		return nil, false
	}
	if top.Origin() != top {
		kept := st.retained
		e.kept = &kept
	}
	return &Result{Violations: st.violations, e: e, top: top, gen: st}, true
}

// Result is one hierarchical verdict. Violations are exact (a
// fast-path result proves its lattice clean for the whole array);
// Circuit materializes the full netlist on demand and is the one place
// the engine reports net and device counts.
type Result struct {
	Violations []drc.Violation

	e   *Engine
	top *core.Cell
	gen *genState // nil on the fast path until Circuit materializes
	lat *Lattice  // what a fast-path Circuit composed over
	ckt *extract.Circuit
}

// Lattice reports what a fast-path verdict's circuit was composed over,
// once Circuit has materialized it; nil for a general composition.
func (r *Result) Lattice() *Lattice { return r.lat }

// cert returns the certificate for one distinct (cell, orientation),
// building it at most once per engine (and at most once per disk
// store across processes). The memo is keyed by pointer, so a hit
// whose cell revision moved on — a leaf mutated in place and announced
// through Editor.Invalidate or Cell.MarkMutated — means any memoized
// certificate, and every template and window derived from one, may
// describe old content: the engine drops its memos and starts over.
func (e *Engine) cert(c *core.Cell, o geom.Orient) (*Cert, error) {
	k := certKey{c, o}
	if ct, ok := e.memo[k]; ok {
		if ct.rev == c.Revision() {
			e.stats.CertMemoHits++
			return ct, nil
		}
		e.resetMemo()
	}
	if ct := e.diskLoad(c, o); ct != nil {
		e.stats.CertDiskHits++
		e.admit(k, ct)
		if e.Trace.Enabled() {
			e.Trace.Begin("cert disk " + c.Name).End()
		}
		return ct, nil
	}
	var csp *obs.Span
	if e.Trace.Enabled() {
		csp = e.Trace.Begin("cert build " + c.Name)
	}
	fr, err := flatten.CellAt(c, geom.Transform{O: o})
	if err != nil {
		csp.End()
		return nil, err
	}
	xsp := csp.Child("extract")
	x, err := extract.CellSolve(fr)
	xsp.End()
	if err != nil {
		csp.End()
		return nil, err
	}
	dsp := csp.Child("drc")
	ct := &Cert{Cell: c, Orient: o, X: x, D: drc.CellCheck(fr)}
	dsp.End()
	csp.End()
	e.stats.CertBuilt++
	e.admit(k, ct)
	e.diskStore(ct)
	return ct, nil
}

// admit enters a built or loaded certificate into the memo with its
// sequence id, its cell's revision and its oriented connectors with
// their local nets.
func (e *Engine) admit(k certKey, ct *Cert) {
	e.certSeq++
	ct.id = e.certSeq
	ct.rev = ct.Cell.Revision()
	ct.conns = ct.Cell.Connectors()
	ct.portNet = make([]int32, len(ct.conns))
	for i := range ct.conns {
		cn := &ct.conns[i]
		cn.At = ct.Orient.Apply(cn.At)
		ct.portNet[i] = ct.X.FindOnLayer(cn.At, cn.Layer)
	}
	e.memo[k] = ct
}

// placed is one leaf occurrence: a certificate at a translation. The
// walk visits leaves in flatten order, so occurrence ids, and with
// them the composed net numbering, match the flat walk's.
type placed struct {
	cert    *Cert
	d       geom.Point // local -> global translation
	mat     geom.Rect  // placed material bounding box
	netBase int32
}

// walk collects the design's leaf occurrences in flatten order.
func (e *Engine) walk(c *core.Cell, tr geom.Transform, occs []placed) ([]placed, error) {
	if c.Kind != core.Composition {
		ct, err := e.cert(c, tr.O)
		if err != nil {
			return nil, err
		}
		return append(occs, placedAt(ct, tr.D)), nil
	}
	var err error
	for _, in := range c.Instances {
		if occs, err = e.walkInstance(in, tr, occs); err != nil {
			return nil, err
		}
	}
	return occs, nil
}

// walkInstance appends the occurrences of every copy of one instance.
func (e *Engine) walkInstance(in *core.Instance, tr geom.Transform, occs []placed) ([]placed, error) {
	var err error
	for i := 0; i < in.Nx; i++ {
		for j := 0; j < in.Ny; j++ {
			occs, err = e.walk(in.Cell, in.CopyTransform(i, j).Then(tr), occs)
			if err != nil {
				return nil, err
			}
		}
	}
	return occs, nil
}

func placedAt(ct *Cert, d geom.Point) placed {
	return placed{cert: ct, d: d, mat: ct.X.MatBox.Translate(d)}
}

// placements collects a top cell's leaf occurrences, building or
// loading each distinct certificate on first sight, into an
// uncomposed state that records where each top-level instance's
// occurrence block starts.
func (e *Engine) placements(top *core.Cell) (*genState, error) {
	wsp := e.Trace.Begin("certs")
	defer wsp.End()
	st := &genState{retained: retained{top: top, first: make([]int, len(top.Instances)+1)}}
	if k := e.kept; k != nil && k.top.Origin() == top.Origin() {
		st.occs = make([]placed, 0, len(k.occs))
	}
	var err error
	for k, in := range top.Instances {
		st.first[k] = len(st.occs)
		if st.occs, err = e.walkInstance(in, geom.Identity, st.occs); err != nil {
			return nil, &Decline{Cond: CondCertBuild, Placement: -1, Err: err}
		}
	}
	st.first[len(top.Instances)] = len(st.occs)
	return st, nil
}

// carryFor returns what a run over a frozen top's walked occurrences
// may carry from the retained composition: nil (compose cold) for a
// live top, whose instances mutate in place; for another lineage than
// the retained one; or for a different layer set, which moves the
// pair reach.
func (e *Engine) carryFor(w *genState) *carry {
	k := e.kept
	top := w.top
	if k == nil || top.Origin() == top || k.top.Origin() != top.Origin() ||
		!slices.Equal(k.layers, layersOf(w.occs)) {
		return nil
	}
	e.stats.Retained++
	return diff(k, top, w.occs, w.first)
}

// layersOf returns the union of the occurrences' checked layers in
// deterministic (sorted) order.
func layersOf(occs []placed) []geom.Layer {
	seen := map[geom.Layer]bool{}
	var out []geom.Layer
	for i := range occs {
		if i > 0 && occs[i].cert == occs[i-1].cert {
			continue
		}
		for _, l := range occs[i].cert.D.Layers {
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rhoOf is the width-interaction radius of a layer: residues depend on
// material within the opening square's reach, bounded by twice the
// minimum width.
func rhoOf(l geom.Layer) int { return 2 * rules.Of(l).MinWidth * rules.Lambda }

// pairReach bounds the distance at which two placements can interact
// at all: width windows (rho), spacing halos, and touching material.
func pairReach(layers []geom.Layer) int {
	reach := rules.Lambda
	for _, l := range layers {
		if r := rhoOf(l); r > reach {
			reach = r
		}
		if s := rules.Of(l).MinSpacing * rules.Lambda; s > reach {
			reach = s
		}
	}
	return reach
}

// String renders engine statistics for -stats reports.
func (s Stats) String() string {
	return fmt.Sprintf("hier: %d run(s), %d fast, %d fallback(s), %d retained; certs %d built, %d memo, %d disk, %d stored; templates %d built, %d hits; %d pair(s) composed; labels %d local, %d context",
		s.Runs, s.FastRuns, s.Fallbacks, s.Retained,
		s.CertBuilt, s.CertMemoHits, s.CertDiskHits, s.CertStored,
		s.TemplateBuilt, s.TemplateHits, s.PairsComposed,
		s.LabelsLocal, s.LabelsContext)
}
