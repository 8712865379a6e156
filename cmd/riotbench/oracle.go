package main

import (
	"fmt"
	"reflect"

	"riot/internal/core"
	"riot/internal/drc"
	"riot/internal/extract"
	"riot/internal/lvs"
	"riot/internal/obs"
	"riot/internal/verify"
)

// The oracle is the scratch flat path: a fresh flatten + extract and a
// fresh DRC of the frozen cell (extract.FromCell, drc.CheckCell), and a
// certificate-free flat LVS of it (lvs.CheckEditorFlat). It runs outside
// every timed region. A verdict matches when the circuit and the
// violations are reflect.DeepEqual to the flat ones, and an LVS result
// when its Clean flag and every mismatch are.

// verdicts is what one op produced: the frozen generation it verified,
// its extract+DRC report and/or LVS result, and, for a traced op, the
// session's stats registry afterwards.
type verdicts struct {
	snap  *core.Snapshot
	rep   *verify.Report
	res   *lvs.Result
	stats *obs.Snapshot
}

// flatReport is the oracle's extract+DRC verdict for a cell.
type flatReport struct {
	ckt    *extract.Circuit
	cktErr error
	vs     []drc.Violation
}

func oracleReport(cell *core.Cell) (*flatReport, error) {
	ckt, cktErr := extract.FromCell(cell)
	vs, err := drc.CheckCell(cell)
	if err != nil {
		return nil, fmt.Errorf("oracle DRC: %w", err)
	}
	return &flatReport{ckt, cktErr, vs}, nil
}

func (f *flatReport) matches(rep *verify.Report) bool {
	if (rep.CircuitErr == nil) != (f.cktErr == nil) {
		return false
	}
	if f.cktErr == nil && !reflect.DeepEqual(rep.Circuit, f.ckt) {
		return false
	}
	return reflect.DeepEqual(rep.Violations, f.vs)
}

// oracleLVS compares a frozen generation flat: the snapshot's cell
// with its declared connections, exactly what CheckSnapshot compared.
func oracleLVS(snap *core.Snapshot) (*lvs.Result, error) {
	return lvs.CheckEditorFlat(&core.Editor{Cell: snap.Cell, Declared: snap.Declared})
}

func sameLVS(got, want *lvs.Result) bool {
	return got.Clean == want.Clean && reflect.DeepEqual(got.Mismatches, want.Mismatches)
}

// check compares one generation's verdicts with the oracle: the report
// when present, the LVS result when present.
func (r *run) check(v *verdicts) error {
	if v.rep != nil {
		want, err := oracleReport(v.snap.Cell)
		if err != nil {
			return err
		}
		r.verdict(fmt.Sprintf("extract+DRC of %s at generation %d", v.snap.Cell.Name, v.snap.Gen), want.matches(v.rep))
	}
	if v.res != nil {
		want, err := oracleLVS(v.snap)
		if err != nil {
			return fmt.Errorf("oracle LVS: %w", err)
		}
		r.verdict(fmt.Sprintf("LVS of %s at generation %d", v.snap.Cell.Name, v.snap.Gen), sameLVS(v.res, want))
	}
	return nil
}

// repeatVerdict checks the verdicts of a design the workload rebuilds
// identically every iteration (a sign-off array, a figure-10 variant).
// Each verdict is compared with the first one seen; after the timed
// loop, settle compares that first verdict with the oracle, so the
// oracle's own time and memory stay out of every measurement.
type repeatVerdict struct {
	first  *verdicts
	same   int // later verdicts identical to the first
	differ int
}

func (rv *repeatVerdict) observe(v *verdicts) {
	if rv.first == nil {
		rv.first = v
		return
	}
	f := &flatReport{rv.first.rep.Circuit, rv.first.rep.CircuitErr, rv.first.rep.Violations}
	if f.matches(v.rep) && sameLVS(v.res, rv.first.res) {
		rv.same++
	} else {
		rv.differ++
	}
}

// settle runs the oracle on the first verdict and charges every
// observed verdict: the first and its identical repeats match iff the
// first matches the oracle; a repeat that differed from the first is a
// mismatch whatever the oracle says, since both cannot be right.
func (rv *repeatVerdict) settle(r *run, what string) error {
	if rv.first == nil {
		return nil
	}
	before := r.mismatches
	if err := r.check(rv.first); err != nil {
		return err
	}
	firstOK := r.mismatches == before
	for i := 0; i < rv.same; i++ {
		r.verdict(what+" repeat", firstOK)
	}
	for i := 0; i < rv.differ; i++ {
		r.verdict(what+" repeat differs from the first verdict", false)
	}
	return nil
}
