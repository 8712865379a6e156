// Package verify is the whole-design verification pipeline. A
// Verifier keys a design's verdict on a core.Editor's edit generation
// and serves it through the hierarchical certificate engine
// (internal/hier) when Hier is set, the shipped default, or through the
// incremental flat pipeline — splicing caches for flattened geometry
// (internal/flatten.Cache), extracted connectivity
// (internal/extract.Incremental) and design-rule state
// (internal/drc.Incremental) — which also serves the engine's declines.
//
// The paper's workflow is edit, verify, edit. The engine extracts and
// checks each distinct cell once and composes placements; the flat
// pipeline re-derives only geometry near the edit. Either way the
// report equals a from-scratch flat run — every path is
// differential-tested — and carries the circuit's leaf-occurrence
// identity (Report.Occs) for LVS, so no path flattens a design just to
// name its occurrences.
//
// A Verifier serves one session at a time and is not safe for
// concurrent use — but it consumes frozen snapshots
// (core.Editor.Snapshot), so the editor it watches may keep mutating
// while a run proceeds, and a server can run many sessions' verifiers
// in parallel against one shared design. Edits made outside the
// editor's methods must be announced with Editor.Invalidate, which
// drops every cache.
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
	// Incremental reports whether any splice path ran (false on the
	// first run, after Invalidate, or when the change log was
	// exhausted).
	Incremental bool
	// Quarantined counts placements the hierarchical engine served by
	// partial degradation (flat residue spliced into the composed
	// remainder) rather than certificate composition; 0 for flat-path
	// reports and clean hierarchical runs.
	Quarantined int
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
// generation, the report returned outright), Spliced (an incremental
// splice ran) and Full (a from-scratch rebuild). Any number of edits
// between two Verify calls coalesce into one delta, so a burst of N
// edits costs one splice, not N — the batched-edit test pins that.
type Stats struct {
	Cached  int
	Spliced int
	Full    int
	// Hier counts runs answered by the hierarchical certificate engine
	// (per-distinct-cell work, no flattening at all); HierPartial those
	// among them that quarantined placements and spliced a flat residue.
	Hier        int
	HierPartial int
}

// Verifier caches verification state across edits of one composition
// cell. The zero Verifier is ready to use.
type Verifier struct {
	cache flatten.Cache
	ext   extract.Incremental
	chk   drc.Incremental

	// Hier routes runs through the hierarchical certificate engine
	// first: each distinct (cell, orientation) extracts and DRC-checks
	// once, placements compose, and the flat pipeline below never runs
	// unless the engine declines. Off by default — the flat pipeline is
	// the reference semantics; the shell turns it on.
	Hier bool
	eng  *hier.Engine

	// trace, when enabled, records the pipeline's span tree per run:
	// one "verify" root with the flatten/extract/drc or hier children.
	// SetTrace propagates it to every stage.
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
// verifier itself, the flatten cache, the extractor, the checker and
// the hierarchical engine all record into t. nil detaches tracing
// everywhere (the default, which costs nothing).
func (v *Verifier) SetTrace(t *obs.Trace) {
	v.trace = t
	v.cache.Trace = t
	v.ext.Trace = t
	v.chk.Trace = t
	v.engine().Trace = t
}

// Trace reports the recorder SetTrace installed, or nil.
func (v *Verifier) Trace() *obs.Trace { return v.trace }

// SetLog routes the hierarchical engine's degradation lines (declines,
// partial quarantines) through l. nil restores the default, stderr;
// obs.Discard silences them.
func (v *Verifier) SetLog(l obs.Logger) { v.engine().Log = l }

// AttachDisk connects the verifier's flatten cache and the
// hierarchical engine to a content-addressed store — the on-disk
// castore.Store, a server's shared in-memory tier, or both
// (castore.Tiered): instance shards and per-cell certificates missing
// in memory (always, in a fresh process) are loaded by content
// signature instead of re-derived. A nil store detaches the flatten
// cache.
func (v *Verifier) AttachDisk(st castore.Blob, sg *castore.Signer) {
	v.cache.AttachDisk(st, sg)
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
// back to the flat pipeline, or nil.
func (v *Verifier) HierDecline() error { return v.engine().LastDecline() }

// HierDeclineInfo reports the structured decline record of the most
// recent hierarchical attempt, or nil.
func (v *Verifier) HierDeclineInfo() *hier.Decline { return v.engine().LastDeclineInfo() }

// InjectFaults arms the hierarchical engine with a fault-injection
// set (nil disarms). The castore faults are wired separately on the
// store itself; see shell.InjectFaults for the full-pipeline hookup.
func (v *Verifier) InjectFaults(f *faultinject.Set) { v.engine().Faults = f }

// FlattenDiskStats reports, for the most recent run, how many instance
// shards loaded from the persistent store.
func (v *Verifier) FlattenDiskStats() (loaded int) { return v.cache.DiskStats() }

// FlattenStats reports, for the most recent run, how many instance
// shards the flatten cache reused vs re-flattened.
func (v *Verifier) FlattenStats() (reused, reflattened int) { return v.cache.Stats() }

// Verify extracts and design-rule checks the editor's cell, through a
// frozen snapshot of the editor's current generation (the editor may
// keep mutating while the run proceeds). An unchanged generation
// returns the cached report outright; a generation the editor's change
// log still covers splices the caches; anything else (first run, log
// exhausted, Invalidate) rebuilds from scratch and re-primes them.
func (v *Verifier) Verify(ed *core.Editor) (*Report, error) {
	return v.VerifySnapshot(ed.Snapshot())
}

// VerifySnapshot is Verify against an explicit frozen generation.
// Snapshot clones of one design cell share lineage (core.Cell.Origin),
// so successive generations splice exactly as a live editor would:
// unchanged instances keep their clone pointers and therefore their
// shards.
func (v *Verifier) VerifySnapshot(snap *core.Snapshot) (*Report, error) {
	cell, gen := snap.Cell, snap.Gen
	if v.have && v.cell == cell && v.gen == gen {
		v.stats.Cached++
		return v.report, nil
	}
	if v.have {
		if _, ok := snap.ChangesSince(v.gen); !ok || v.cell.Origin() != cell.Origin() {
			// tracking lost: unbounded change, trimmed log, or a cell
			// switch — drop the flatten cache so no stale shard splices
			// (the downstream caches reset themselves off the nil delta)
			v.cache.Reset()
			if !ok && v.eng != nil {
				// an Invalidate can mean leaf cells mutated in place;
				// the engine's pointer-keyed certificate memo would not
				// notice, so drop it (store entries are content-signed
				// and re-key correctly — the signer's memo entries are
				// revision-checked, so they recompute on their own)
				v.eng.ResetMemo()
			}
		}
	}
	return v.run(cell, gen)
}

// VerifyCell verifies a cell outside any editor: a full, cache-priming
// run. Subsequent Verify calls on an editor of the same cell splice
// from it. Snapshot clones compare by lineage, so verifying successive
// frozen generations of one design cell keeps the cache warm.
func (v *Verifier) VerifyCell(cell *core.Cell) (*Report, error) {
	if v.cell == nil || v.cell.Origin() != cell.Origin() {
		v.cache.Reset()
	}
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
	fr, delta, err := v.cache.Flatten(cell)
	if err != nil {
		v.have = false
		return nil, err
	}
	ckt, splicedCkt, cktErr := v.ext.Solve(fr, delta)
	vs, splicedDRC := v.chk.Check(fr, delta)
	if splicedCkt || splicedDRC {
		v.stats.Spliced++
	} else {
		v.stats.Full++
	}
	v.cell, v.gen, v.have = cell, gen, true
	v.report = &Report{
		Circuit:     ckt,
		CircuitErr:  cktErr,
		Violations:  vs,
		Incremental: splicedCkt || splicedDRC,
		Gen:         gen,
		Occs:        fr.Occurrences(),
	}
	return v.report, nil
}

// runHier attempts the hierarchical path: per-distinct-cell
// certificates composed over placements, verdict-identical to the flat
// pipeline or declined. On success the circuit materializes eagerly so
// the report is complete, occurrence identity included. Any decline
// (engine-level or during materialization) reports ok=false and the
// caller runs the flat pipeline, which reproduces whatever verdict or
// error the design deserves.
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
	if res.Quarantined > 0 {
		v.stats.HierPartial++
	}
	v.cell, v.gen, v.have = cell, gen, true
	v.report = &Report{
		Circuit:     ckt,
		Violations:  res.Violations,
		Quarantined: res.Quarantined,
		Gen:         gen,
		Occs:        res.Occs,
	}
	return v.report, true
}
