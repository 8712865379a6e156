package lvs

import (
	"fmt"

	"riot/internal/core"
	"riot/internal/extract"
	"riot/internal/obs"
	"riot/internal/verify"
)

// Incremental is the LVS entry point: one Incremental holds the
// reference memo (leaf extractions, per-cell stitches) and the last
// verdict, keyed on the editor's generation.
// The layout side comes from the caller's verify.Verifier — the one
// the DRC and EXTRACT commands use, which by default composes per-cell
// certificates (internal/hier) and runs the scratch flat reference
// only when the engine declines. An unchanged generation returns the
// cached verdict outright. After a one-cell edit:
//
//   - carried: every leaf netlist and untouched sub-cell entry, each
//     cell's port bindings (the net every connector's own position
//     resolves to), and the pair templates the re-stitch replays
//     again;
//   - rerun over the whole design: the edited composition's pair
//     discovery, template replay through one union-find, renumbering,
//     the device copy, the label table (one integer read per label
//     site, or a point query for a connector with no net of its own)
//     and the walk-order witness over both device lists and both
//     tables.
//
// A fast-path array's check reruns none of it (the template witness).
// A check the witness settles formats no label name: only the flat
// comparison names both tables. A leaf mutated in place, which
// Editor.Invalidate or Cell.MarkMutated announce, re-derives its entry.
// The memo lives in process only: a fresh Incremental extracts each
// distinct leaf once, whatever store the verifier has attached. A
// fresh Incremental over a zero Verifier is the from-scratch path
// (flatten, solve, witness); the caches are invisible except as speed.
type Incremental struct {
	// Ref is the reference-netlist memo; usable directly when a caller
	// wants the reference netlist itself. Because the memo persists
	// across generations, an edit extracts no unchanged leaf again.
	Ref Reference
	// Trace, when enabled, records an "lvs" span per Check with the
	// verifier's span tree, a "reference" derivation span and a "match"
	// span nested inside; nil records nothing and costs nothing.
	Trace *obs.Trace

	cell *core.Cell
	gen  uint64
	res  *Result
	have bool
	last *Result
}

// Last reports the most recent comparison's Result (through either
// Check or CheckCell), or nil before the first run. Stats surfaces read
// the witness accounting from it.
func (inc *Incremental) Last() *Result { return inc.last }

// Check runs LVS on the editor's cell through the shared verifier.
// The run sees a frozen snapshot of the editor's current generation,
// so the verdict is deterministic per generation even while the editor
// keeps mutating.
func (inc *Incremental) Check(ed *core.Editor, v *verify.Verifier) (*Result, error) {
	return inc.CheckSnapshot(ed.Snapshot(), v)
}

// CheckSnapshot is Check against an explicit frozen generation. The
// verifier must be the session's own; generations are globally unique,
// so the cached verdict can never alias another session's.
func (inc *Incremental) CheckSnapshot(snap *core.Snapshot, v *verify.Verifier) (*Result, error) {
	sp := inc.Trace.Begin("lvs")
	defer sp.End()
	rep, err := v.VerifySnapshot(snap)
	if err != nil {
		return nil, err
	}
	if inc.have && inc.cell == snap.Cell && inc.gen == rep.Gen {
		sp.Note("path", "cached")
		return inc.res, nil
	}
	res, err := inc.compare(snap.Cell, snap.Declared, rep)
	if err != nil {
		return nil, err
	}
	inc.cell, inc.gen, inc.res, inc.have = snap.Cell, rep.Gen, res, true
	return res, nil
}

// CheckCell runs LVS on a cell outside any editor, still through the
// verifier's cache (a full, cache-priming run) and the reference memo.
// No editing session means no declared records: the reference is the
// cell's structure alone.
func (inc *Incremental) CheckCell(cell *core.Cell, v *verify.Verifier) (*Result, error) {
	sp := inc.Trace.Begin("lvs")
	defer sp.End()
	rep, err := v.VerifyCell(cell)
	if err != nil {
		return nil, err
	}
	inc.have = false // verdict cache is per-editor-generation only
	return inc.compare(cell, nil, rep)
}

// compare derives the reference and compares the verifier's circuit
// against it: the template witness of a fast-path array, else the
// stitched reference through the walk-order witness, else the flat
// comparison.
func (inc *Incremental) compare(cell *core.Cell, declared []core.Connection, rep *verify.Report) (*Result, error) {
	ckt, err := rep.Netlist()
	if err != nil {
		return nil, fmt.Errorf("lvs: %s: layout extraction failed: %w", cell.Name, err)
	}
	if res := inc.arrayWitness(cell, declared, rep.Lattice(), ckt); res != nil {
		inc.last = res
		return res, nil
	}
	rsp := inc.Trace.Begin("reference")
	ref, leaves, err := inc.Ref.unnamed(cell, declared)
	rsp.End()
	if err != nil {
		return nil, err
	}
	msp := inc.Trace.Begin("match")
	res := inc.Ref.compare(cell, ref, leaves, ckt)
	msp.End()
	inc.last = res
	return res, nil
}

// CheckCellFlat is the witness-free baseline: a plain flat comparison
// of a fresh reference derivation against a fresh extraction. The
// differential tests pin that its verdict — Clean and every Mismatch —
// is identical to the certified path's.
func CheckCellFlat(cell *core.Cell) (*Result, error) {
	return checkFlat(cell, nil)
}

// CheckEditorFlat is CheckCellFlat for a cell under edit, honoring the
// session's declared connection records.
func CheckEditorFlat(ed *core.Editor) (*Result, error) {
	return checkFlat(ed.Cell, ed.Declared)
}

func checkFlat(cell *core.Cell, declared []core.Connection) (*Result, error) {
	ckt, err := extract.FromCell(cell)
	if err != nil {
		return nil, fmt.Errorf("lvs: %s: layout extraction failed: %w", cell.Name, err)
	}
	var rf Reference
	ref, err := rf.Netlist(cell, declared)
	if err != nil {
		return nil, err
	}
	return Compare(ref, FromCircuit(ckt, cell)), nil
}
