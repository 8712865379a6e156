package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"riot/internal/core"
	"riot/internal/obs"
	"riot/internal/serve"
	"riot/internal/shell"
)

const (
	serveDesign = "team"
	designerID  = "designer"
	designerTop = "GRID"
)

// serveClient is one client's view of the server: Do wrapped in a
// harness span per command kind, with traced calls' latencies kept for
// serve.do_ms.<kind>.
type serveClient struct {
	sv    *serve.Server
	sid   string
	tr    *obs.Trace
	calls map[string]samples
}

func (c *serveClient) do(kind, line string) error {
	sp := c.tr.Begin(spanDo + kind)
	t0 := time.Now()
	_, err := c.sv.Do(c.sid, line)
	d := time.Since(t0)
	sp.End()
	if c.tr != nil {
		c.calls["serve.do_ms."+kind] = append(c.calls["serve.do_ms."+kind], ms(d))
	}
	return err
}

// signoffSession runs one sign-off session on cell: open, build a
// size×size array, LVS, DRC, and leave the design as it was. When
// capture is set, the session's verdicts are captured before ENDEDIT,
// outside the returned duration.
func signoffSession(c *serveClient, cell string, size int, capture bool) (time.Duration, *verdicts, error) {
	t0 := time.Now()
	sp := c.tr.Begin(spanDo + "open")
	err := c.sv.Open(c.sid, serveDesign)
	sp.End()
	if err != nil {
		return 0, nil, err
	}
	sh, _ := c.sv.Shell(c.sid)
	sh.SetTrace(c.tr)
	steps := []struct{ kind, line string }{
		{"edit", "EDIT " + cell},
		{"create", fmt.Sprintf("CREATE SRCELL a ARRAY %d %d", size, size)},
		{"lvs", "LVS"},
		{"drc", "DRC"},
	}
	for _, st := range steps {
		if err := c.do(st.kind, st.line); err != nil {
			c.sv.Close(c.sid)
			return 0, nil, fmt.Errorf("%s: %w", st.line, err)
		}
	}
	d := time.Since(t0)
	var v *verdicts
	if capture {
		sh.SetTrace(nil) // the capture is not part of the session
		rep, err := sh.VerifyNamed(cell)
		if err != nil {
			c.sv.Close(c.sid)
			return 0, nil, err
		}
		v = &verdicts{snap: frozen(sh), rep: rep, res: sh.LVS.Last()}
	}
	t1 := time.Now()
	for _, line := range []string{"ENDEDIT", "DELCELL " + cell} {
		if err := c.do("edit", line); err != nil {
			c.sv.Close(c.sid)
			return 0, nil, fmt.Errorf("%s: %w", line, err)
		}
	}
	sp = c.tr.Begin(spanDo + "close")
	err = c.sv.Close(c.sid)
	sp.End()
	d += time.Since(t1)
	if v != nil && c.tr != nil {
		v.stats = sh.Snapshot()
	}
	return d, v, err
}

// runServeMix shares one serve.Server between a designer editing a
// 16x16 grid and a sign-off client cycling 64x64 sessions on other
// cells of the same design.
func runServeMix(r *run) error {
	var sv *serve.Server
	k := 0
	err := r.timeSetup(func() error {
		s, err := serve.New(serve.Options{})
		if err != nil {
			return err
		}
		if err := s.Open(designerID, serveDesign); err != nil {
			return err
		}
		for _, line := range append(gridScript(designerTop, r.cfg.serveN), "DRC", "LVS") {
			if _, err := s.Do(designerID, line); err != nil {
				return fmt.Errorf("%s: %w", line, err)
			}
		}
		k++
		c := &serveClient{sv: s, sid: fmt.Sprintf("s%d", k)}
		if _, _, err := signoffSession(c, fmt.Sprintf("CHIP_%d", k), r.cfg.serveArr, false); err != nil {
			return err
		}
		sv = s
		return nil
	})
	if err != nil {
		return err
	}
	designer, _ := sv.Shell(designerID)
	start := storeCounts(sv)

	// Both clients report into r under mu; the oracle runs after both
	// have stopped.
	var (
		mu          sync.Mutex
		checks      []*verdicts
		designerErr error
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		checks, designerErr = runDesigner(r, &mu, sv, designer)
	}()
	finished := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}

	var seen repeatVerdict
	for !finished() {
		k++
		c := &serveClient{sv: sv, sid: fmt.Sprintf("s%d", k), tr: r.traceFor(k), calls: map[string]samples{}}
		d, v, err := signoffSession(c, fmt.Sprintf("CHIP_%d", k), r.cfg.serveArr, true)
		mu.Lock()
		r.attempted++
		if err != nil {
			r.fail("sign-off session", err)
		} else {
			r.observe(r.w.secondary, d)
			r.units++
			r.busy += d
			r.layers.addCalls(c.calls)
			r.account(r.w.secondary, c.tr, d, nil, func() *obs.Snapshot { return v.stats })
			seen.observe(v)
		}
		mu.Unlock()
	}
	if designerErr != nil {
		return designerErr
	}
	end := storeCounts(sv)
	if lookups := end.hits - start.hits + end.misses - start.misses; lookups > 0 {
		r.layers.storeHitRate = float64(end.hits-start.hits) / float64(lookups)
	}
	r.layers.storeMB = float64(end.bytes) / 1e6
	if err := r.markPeak(); err != nil {
		return err
	}
	for _, v := range checks {
		if err := r.check(v); err != nil {
			return err
		}
	}
	return seen.settle(r, "sign-off session")
}

// runDesigner is the serve_mix designer: the edit_loop generator on a
// grid through Server.Do, each edit followed by DRC (every fifth by
// LVS). It returns every tenth generation's verdicts for the oracle.
func runDesigner(r *run, mu *sync.Mutex, sv *serve.Server, sh *shell.Shell) ([]*verdicts, error) {
	var checks []*verdicts
	gen := newEditGen(r.rng, r.cfg.serveN)
	start := time.Now()
	for op := 0; r.more(op, start); op++ {
		line := gen.next()
		kind, key := "drc", r.w.primary
		if op%5 == 4 {
			kind, key = "lvs", "edit_lvs_ms"
		}
		cl := &serveClient{sv: sv, sid: designerID, tr: r.traceFor(op), calls: map[string]samples{}}
		var before *obs.Snapshot
		if cl.tr != nil {
			before = sh.Snapshot()
			sh.SetTrace(cl.tr)
		}
		t0 := time.Now()
		err := cl.do("edit", line)
		if err == nil {
			err = cl.do(kind, strings.ToUpper(kind))
		}
		d := time.Since(t0)
		if cl.tr != nil {
			sh.SetTrace(nil)
		}

		mu.Lock()
		r.attempted++
		if err != nil {
			r.fail(line, err)
		} else {
			r.observe(key, d)
			r.layers.addCalls(cl.calls)
			r.account(key, cl.tr, d, before, sh.Snapshot)
		}
		mu.Unlock()
		if err != nil || op%r.cfg.oracleN != 0 {
			continue
		}
		// capture now, compare later: an oracle pause here would hand
		// the sign-off client an idle server and skew its latencies
		ck := &verdicts{snap: frozen(sh)}
		if kind == "drc" {
			if ck.rep, err = sh.VerifyNamed(designerTop); err != nil {
				return nil, err
			}
		} else {
			ck.res = sh.LVS.Last()
		}
		checks = append(checks, ck)
	}
	return checks, nil
}

// frozen snapshots a server session's cell under edit under the
// design's read guard, as the shell's own verifying commands do.
func frozen(sh *shell.Shell) *core.Snapshot {
	sh.Guard.RLock()
	defer sh.Guard.RUnlock()
	return sh.Editor.Snapshot()
}

type storeStat struct{ hits, misses, bytes int64 }

// storeCounts reads the shared store's counters from the server's
// aggregate stats.
func storeCounts(sv *serve.Server) storeStat {
	snap := sv.Snapshot()
	hits, _ := snap.Get("store", "hits")
	misses, _ := snap.Get("store", "misses")
	bytes, _ := snap.Get("store", "bytes")
	return storeStat{hits, misses, bytes}
}
