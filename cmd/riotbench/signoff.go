package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"riot"
	"riot/internal/obs"
)

// signoff runs one CLI-style sign-off of an n×n array in a fresh
// Session over the cache directory dir, as cmd/riot does for a script
// followed by -lvs and -drc.
func signoff(n int, dir string, tr *obs.Trace) (*verdicts, error) {
	sp := tr.Begin(spanSession)
	s, err := riot.NewSession(nil)
	sp.End()
	if err != nil {
		return nil, err
	}
	s.SetTrace(tr)
	sp = tr.Begin(spanOpen)
	err = s.AttachCache(dir)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Begin(spanEdit)
	err = s.ExecAll("READ srcell.sticks", "EDIT CHIP", fmt.Sprintf("CREATE SRCELL a ARRAY %d %d", n, n))
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Begin(spanSnapshot)
	snap := s.Editor().Snapshot()
	sp.End()
	res, err := s.CheckLVS("CHIP")
	if err != nil {
		return nil, err
	}
	rep, err := s.VerifyCell("CHIP")
	if err != nil {
		return nil, err
	}
	out := &verdicts{snap: snap, rep: rep, res: res}
	if tr != nil {
		out.stats = s.Snapshot()
	}
	return out, nil
}

// runSignoff loops cold/warm sign-off pairs: a cold sign-off on an
// empty cache directory, then a warm one in a fresh Session over the
// directory the cold run filled. Each sign-off starts on a collected
// heap, as each riot process of a scripted sign-off would, so peak
// memory is the sign-off's own and not wherever the previous one's
// garbage left the collector.
func runSignoff(r *run) error {
	n := r.cfg.signoffN[r.w.name]
	root, err := os.MkdirTemp(r.cfg.workDir, "riotbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	seq := 0
	newDir := func() string {
		seq++
		return filepath.Join(root, fmt.Sprint(seq))
	}
	err = r.timeSetup(func() error {
		dir := newDir()
		defer os.RemoveAll(dir)
		for i := 0; i < 2; i++ {
			runtime.GC()
			if _, err := signoff(n, dir, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	var seen repeatVerdict
	start := time.Now()
	for it := 0; r.more(it, start); it++ {
		dir := newDir()
		for _, key := range []string{r.w.secondary, r.w.primary} {
			tr := r.traceFor(it)
			runtime.GC()
			t0 := time.Now()
			res, err := signoff(n, dir, tr)
			d := time.Since(t0)
			r.attempted++
			if err != nil {
				r.fail(key, err)
				continue
			}
			r.observe(key, d)
			r.units++
			r.busy += d
			r.account(key, tr, d, nil, func() *obs.Snapshot { return res.stats })
			seen.observe(res)
		}
		os.RemoveAll(dir)
	}
	if err := r.markPeak(); err != nil {
		return err
	}
	return seen.settle(r, "sign-off")
}
