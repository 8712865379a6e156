package lvs

import (
	"fmt"

	"riot/internal/core"
	"riot/internal/extract"
	"riot/internal/flatten"
	"riot/internal/obs"
	"riot/internal/verify"
)

// Incremental is the edit-loop entry point: one Incremental holds the
// reference memo (leaf extractions, per-cell stitches) and the last
// verdict, keyed on the editor's generation. The layout side comes from
// the shared verify.Verifier — the one the DRC and EXTRACT commands
// use, which by default composes per-cell certificates (internal/hier)
// and runs the scratch flat reference only when the engine declines —
// so a one-cell edit re-extracts no unchanged cell, re-stitches only the
// edited composition's entry (every leaf netlist and untouched sub-cell
// entry is reused), and re-labels from there; an unchanged generation
// returns the cached verdict outright. The verdict is identical to a
// from-scratch CheckCell — the caches are invisible except as speed.
type Incremental struct {
	// Ref is the reference-netlist memo; usable directly when a caller
	// wants the reference netlist itself.
	Ref Reference
	// Certs records hierarchical sub-cell certificates across runs:
	// each distinct sub-cell signature is matched once, and certified
	// occurrences compare collapsed (see certificate.go). Because the
	// store and the reference memo persist across generations, an edit
	// re-matches nothing and refinement warm-starts from the certified
	// boundary anchors — only the un-certified region around the edit
	// is re-refined.
	Certs CertStore
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
// the certificate accounting from it.
func (inc *Incremental) Last() *Result { return inc.last }

// Check runs LVS on the editor's cell through the shared verifier.
// The run sees a frozen snapshot of the editor's current generation,
// so the verdict is deterministic per generation even while the editor
// keeps mutating.
func (inc *Incremental) Check(ed *core.Editor, v *verify.Verifier) (*Result, error) {
	return inc.CheckSnapshot(ed.Snapshot(), v)
}

// CheckSnapshot is Check against an explicit frozen generation. The
// verifier must be the session's own (its report carries the occurrence
// identity the comparison aligns against); generations are globally
// unique, so the cached verdict can never alias another session's.
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
// against it, through the certificate collapse.
func (inc *Incremental) compare(cell *core.Cell, declared []core.Connection, rep *verify.Report) (*Result, error) {
	if rep.CircuitErr != nil {
		return nil, fmt.Errorf("lvs: %s: layout extraction failed: %w", cell.Name, rep.CircuitErr)
	}
	rsp := inc.Trace.Begin("reference")
	ref, occs, err := inc.Ref.NetlistOccs(cell, declared)
	rsp.End()
	if err != nil {
		return nil, err
	}
	msp := inc.Trace.Begin("match")
	res := compareHier(&inc.Ref, &inc.Certs, occs, ref, rep.Circuit, rep.Occs)
	msp.End()
	inc.last = res
	return res, nil
}

// checkScratch is the shared from-scratch path: fresh reference memo,
// fresh certificate store, fresh extraction.
func checkScratch(cell *core.Cell, declared []core.Connection) (*Result, error) {
	fr, err := flatten.Cell(cell)
	if err != nil {
		return nil, fmt.Errorf("lvs: %s: layout extraction failed: %w", cell.Name, err)
	}
	ckt, _, err := extract.SolveNets(fr)
	if err != nil {
		return nil, fmt.Errorf("lvs: %s: layout extraction failed: %w", cell.Name, err)
	}
	var rf Reference
	var cs CertStore
	ref, occs, err := rf.NetlistOccs(cell, declared)
	if err != nil {
		return nil, err
	}
	return compareHier(&rf, &cs, occs, ref, ckt, fr.Occurrences()), nil
}

// CheckCell is the from-scratch convenience: a fresh reference
// derivation against a fresh extraction, no caches involved. Tests and
// the scale benchmark use it as the baseline the incremental path must
// reproduce verdict-identically.
func CheckCell(cell *core.Cell) (*Result, error) {
	return checkScratch(cell, nil)
}

// CheckEditor is the from-scratch path for a cell under edit, honoring
// the session's declared connection records without any caching.
func CheckEditor(ed *core.Editor) (*Result, error) {
	return checkScratch(ed.Cell, ed.Declared)
}

// CheckCellFlat is the certificate-free baseline: a plain flat
// comparison of a fresh reference derivation against a fresh
// extraction. The differential tests pin that its verdict — Clean and
// every Mismatch — is identical to the certified paths'.
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
	return Compare(ref, FromCircuit(ckt)), nil
}
