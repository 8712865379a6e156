// Package verify is the whole-design verification pipeline. A
// Verifier keys a design's verdict on a core.Editor's edit generation
// and serves it through the hierarchical certificate engine
// (internal/hier) when Hier is set, the shipped default. Otherwise, and
// whenever the engine declines, it runs the scratch flat reference:
// flatten the design (internal/flatten), extract it (internal/extract)
// and check it (internal/drc), from scratch.
//
// The paper's workflow is edit, verify, edit. The engine extracts and
// checks each distinct cell once and composes placements, so an edit
// re-derives only what the edited placements touch. Either way the
// report equals a from-scratch flat run — the engine is
// differential-tested against it — and carries the circuit's
// leaf-occurrence identity (Report.Occs) for LVS, so no path flattens
// a design just to name its occurrences.
//
// A Verifier serves one session at a time and is not safe for
// concurrent use — but it consumes frozen snapshots
// (core.Editor.Snapshot), so the editor it watches may keep mutating
// while a run proceeds, and a server can run many sessions' verifiers
// in parallel against one shared design. Edits made outside the
// editor's methods must be announced with Editor.Invalidate (or
// Cell.MarkMutated on a cell mutated in place), which the generation
// key and the engine's revision-checked certificate memo both see.
package verify

import (
	"riot/internal/castore"
	"riot/internal/core"
	"riot/internal/drc"
	"riot/internal/extract"
	"riot/internal/faultinject"
	"riot/internal/flatten"
	"riot/internal/hier"
	"riot/internal/obs"
)

// Report is the outcome of one whole-design verification.
type Report struct {
	// Circuit is the extracted netlist, nil when extraction failed
	// (CircuitErr says why — e.g. a transistor with a floating channel
	// mid-edit). DRC runs either way.
	Circuit    *extract.Circuit
	CircuitErr error
	// Violations is the design-rule report, empty when clean.
	Violations []drc.Violation
	// Gen is the editor generation the report describes.
	Gen uint64
	// Occs is the circuit's leaf-occurrence identity in flat walk
	// order: each occurrence's leaf cell and the start of its devices in
	// Circuit.Transistors. LVS aligns certified sub-cells against it.
	// The hierarchical path records it while materializing the circuit;
	// the flat path derives it from the geometry it flattened anyway.
	Occs *flatten.Occurrences
}

// Clean reports whether the design extracted successfully and checked
// rule-clean.
func (r *Report) Clean() bool {
	return r.CircuitErr == nil && len(r.Violations) == 0
}

// Stats counts how a Verifier satisfied its runs: Cached (unchanged
// generation, the report returned outright), Full (a scratch flat run:
// Hier unset, or the engine declined) and Hier (answered by the
// hierarchical certificate engine, with no flattening at all).
type Stats struct {
	Cached int
	Full   int
	Hier   int
}

// Verifier caches verification state across edits of one composition
// cell. The zero Verifier is ready to use: it runs the scratch flat
// reference on every new generation.
type Verifier struct {
	// Hier routes runs through the hierarchical certificate engine
	// first: each distinct (cell, orientation) extracts and DRC-checks
	// once, placements compose, and the scratch flat run never happens
	// unless the engine declines. Off by default — the flat run is the
	// reference semantics; the shell turns it on.
	Hier bool
	eng  *hier.Engine

	// trace, when enabled, records the pipeline's span tree per run:
	// one "verify" root with the flatten/extract/drc or hier children.
	// SetTrace propagates it to the engine.
	trace *obs.Trace

	cell   *core.Cell
	gen    uint64
	have   bool
	report *Report
	stats  Stats
}

// Stats reports the verifier's run accounting.
func (v *Verifier) Stats() Stats { return v.stats }

// SetTrace wires a span recorder through the whole pipeline: the
// verifier itself (with its flat flatten/extract/drc stages) and the
// hierarchical engine record into t. nil detaches tracing everywhere
// (the default, which costs nothing).
func (v *Verifier) SetTrace(t *obs.Trace) {
	v.trace = t
	v.engine().Trace = t
}

// Trace reports the recorder SetTrace installed, or nil.
func (v *Verifier) Trace() *obs.Trace { return v.trace }

// SetLog routes the hierarchical engine's decline lines through l. nil
// restores the default, stderr; obs.Discard silences them.
func (v *Verifier) SetLog(l obs.Logger) { v.engine().Log = l }

// AttachDisk connects the hierarchical engine to a content-addressed
// store — the on-disk castore.Store, a server's shared in-memory tier,
// or both (castore.Tiered): per-cell certificates missing in memory
// (always, in a fresh process) are loaded by content signature instead
// of re-derived.
func (v *Verifier) AttachDisk(st castore.Blob, sg *castore.Signer) {
	v.engine().AttachDisk(st, sg)
}

// engine returns the hierarchical engine, creating it on first use.
func (v *Verifier) engine() *hier.Engine {
	if v.eng == nil {
		v.eng = hier.New()
	}
	return v.eng
}

// HierStats reports the hierarchical engine's work counters.
func (v *Verifier) HierStats() hier.Stats { return v.engine().Stats() }

// HierDecline reports why the most recent hierarchical attempt fell
// back to the scratch flat run, or nil.
func (v *Verifier) HierDecline() error { return v.engine().LastDecline() }

// HierDeclineInfo reports the structured decline record of the most
// recent hierarchical attempt, or nil.
func (v *Verifier) HierDeclineInfo() *hier.Decline { return v.engine().LastDeclineInfo() }

// InjectFaults arms the hierarchical engine with a fault-injection
// set (nil disarms). The castore faults are wired separately on the
// store itself; see shell.InjectFaults for the full-pipeline hookup.
func (v *Verifier) InjectFaults(f *faultinject.Set) { v.engine().Faults = f }

// Verify extracts and design-rule checks the editor's cell, through a
// frozen snapshot of the editor's current generation (the editor may
// keep mutating while the run proceeds). An unchanged generation
// returns the cached report outright; anything else runs again.
func (v *Verifier) Verify(ed *core.Editor) (*Report, error) {
	return v.VerifySnapshot(ed.Snapshot())
}

// VerifySnapshot is Verify against an explicit frozen generation.
func (v *Verifier) VerifySnapshot(snap *core.Snapshot) (*Report, error) {
	cell, gen := snap.Cell, snap.Gen
	if v.have && v.cell == cell && v.gen == gen {
		v.stats.Cached++
		return v.report, nil
	}
	return v.run(cell, gen)
}

// VerifyCell verifies a cell outside any editor; it always runs, since
// there is no generation to key a cached report on.
func (v *Verifier) VerifyCell(cell *core.Cell) (*Report, error) {
	return v.run(cell, 0)
}

func (v *Verifier) run(cell *core.Cell, gen uint64) (*Report, error) {
	sp := v.trace.Begin("verify")
	defer sp.End()
	if sp != nil {
		sp.Note("cell", cell.Name)
	}
	if v.Hier {
		if rep, ok := v.runHier(cell, gen); ok {
			return rep, nil
		}
	}
	fsp := v.trace.Begin("flatten")
	fr, err := flatten.Cell(cell)
	fsp.End()
	if err != nil {
		v.have = false
		return nil, err
	}
	xsp := v.trace.Begin("extract")
	ckt, cktErr := extract.Solve(fr)
	xsp.End()
	dsp := v.trace.Begin("drc")
	vs := drc.Check(fr)
	dsp.End()
	v.stats.Full++
	v.cell, v.gen, v.have = cell, gen, true
	v.report = &Report{
		Circuit:    ckt,
		CircuitErr: cktErr,
		Violations: vs,
		Gen:        gen,
		Occs:       fr.Occurrences(),
	}
	return v.report, nil
}

// runHier attempts the hierarchical path: per-distinct-cell
// certificates composed over placements, verdict-identical to the
// scratch flat run or declined. On success the circuit materializes
// eagerly so the report is complete, occurrence identity included. Any
// decline (engine-level or during materialization) reports ok=false
// and the caller runs the scratch flat reference, which reproduces
// whatever verdict or error the design deserves.
func (v *Verifier) runHier(cell *core.Cell, gen uint64) (*Report, bool) {
	res, ok := v.engine().Verify(cell)
	if !ok {
		return nil, false
	}
	msp := v.trace.Begin("materialize")
	ckt, err := res.Circuit()
	msp.End()
	if err != nil {
		return nil, false
	}
	v.stats.Hier++
	v.cell, v.gen, v.have = cell, gen, true
	v.report = &Report{
		Circuit:    ckt,
		Violations: res.Violations,
		Gen:        gen,
		Occs:       res.Occs,
	}
	return v.report, true
}
