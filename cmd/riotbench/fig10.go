package main

import (
	"io"
	"time"

	"riot"
	"riot/internal/core"
	"riot/internal/filter"
	"riot/internal/obs"
)

// chip builds one figure-10 chip and signs it off: LVS and DRC through
// a fresh Session over the built design, then CIF export.
func chip(v filter.Variant, tr *obs.Trace) (*verdicts, error) {
	sp := tr.Begin(spanAssemble)
	d, top, _, err := filter.BuildChip(v)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Begin(spanSession)
	s, err := riot.NewSession(nil)
	sp.End()
	if err != nil {
		return nil, err
	}
	s.Shell.Design = d
	s.SetTrace(tr)
	sp = tr.Begin(spanSnapshot)
	snap := &core.Snapshot{Cell: d.SnapshotCell(top)}
	sp.End()
	res, err := s.CheckLVS(top.Name)
	if err != nil {
		return nil, err
	}
	rep, err := s.VerifyCell(top.Name)
	if err != nil {
		return nil, err
	}
	sp = tr.Begin(spanExport)
	f, err := core.ExportCIF(top)
	if err == nil {
		_, err = f.WriteTo(io.Discard)
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	out := &verdicts{snap: snap, rep: rep, res: res}
	if tr != nil {
		out.stats = s.Snapshot()
	}
	return out, nil
}

// runFig10 alternates the stretched and the routed figure-10 chip.
func runFig10(r *run) error {
	variants := []struct {
		v   filter.Variant
		key string
	}{{filter.Stretched, r.w.primary}, {filter.Routed, r.w.secondary}}
	err := r.timeSetup(func() error {
		for _, vr := range variants {
			if _, err := chip(vr.v, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	seen := make([]repeatVerdict, len(variants))
	start := time.Now()
	for op := 0; r.more(op, start); op++ {
		vr := variants[op%len(variants)]
		// both chips of a pair share one half, so each half sees both
		tr := r.traceFor(op / len(variants))
		t0 := time.Now()
		res, err := chip(vr.v, tr)
		d := time.Since(t0)
		r.attempted++
		if err != nil {
			r.fail(vr.v.String(), err)
			continue
		}
		r.observe(vr.key, d)
		r.units++
		r.busy += d
		r.account(vr.key, tr, d, nil, func() *obs.Snapshot { return res.stats })
		seen[op%len(variants)].observe(res)
	}
	if err := r.markPeak(); err != nil {
		return err
	}
	for i, vr := range variants {
		if err := seen[i].settle(r, "figure-10 "+vr.v.String()); err != nil {
			return err
		}
	}
	return nil
}
