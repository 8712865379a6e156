package lvs

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"riot/internal/castore"
	"riot/internal/geom"
	"riot/internal/verify"
)

// The persistence differential suite: the on-disk store must change
// verdicts never and wall-time only. Every test compares a
// store-backed run against the cache-free flat baseline, both on a
// warm store and under every corruption mode, and asserts the results
// are deeply equal.

// warmSession runs one full LVS over a fresh 4x4 grid editor with the
// store at dir attached, simulating one process lifetime (fresh cell
// pointers, fresh signer, fresh memos each call — only the directory
// persists). The layout side is the shipped hierarchical verifier; the
// int result counts its certificates loaded from the store.
func warmSession(t *testing.T, dir string, logf func(string, ...any)) (*Result, CertStoreStats, int, *castore.Store) {
	t.Helper()
	e := gridEditor(t, 4)
	st, err := castore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Log = logf
	v := &verify.Verifier{Hier: true}
	inc := &Incremental{}
	inc.AttachDisk(st, &castore.Signer{}, v)
	res, err := inc.Check(e, v)
	if err != nil {
		t.Fatalf("store-backed check: %v", err)
	}
	return res, inc.Certs.Stats(), v.HierStats().CertDiskHits, st
}

// TestPersistWarmRestart: a second process over the same store
// directory must produce the identical verdict while performing zero
// sub-cell matches and zero leaf re-extractions — the whole point of
// persisting the caches.
func TestPersistWarmRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")

	cold, coldStats, _, st1 := warmSession(t, dir, t.Logf)
	mustClean(t, cold, nil, "cold store-backed run")
	if coldStats.Matched != 1 || coldStats.DiskHits != 0 {
		t.Fatalf("cold run stats = %+v; want 1 match, 0 disk hits", coldStats)
	}
	if got := st1.Stats(); got.Puts == 0 {
		t.Fatalf("cold run wrote nothing to the store: %+v", got)
	}
	st1.Close()

	warm, warmStats, certsLoaded, st2 := warmSession(t, dir, t.Logf)
	defer st2.Close()
	if warmStats.Matched != 0 {
		t.Errorf("warm restart performed %d sub-cell matches; want 0 (served from disk)", warmStats.Matched)
	}
	if warmStats.DiskHits != 1 {
		t.Errorf("warm restart disk hits = %d, want 1 (the one distinct leaf)", warmStats.DiskHits)
	}
	if certsLoaded != 1 {
		t.Errorf("warm restart loaded %d hier certificates from disk, want 1 (the one distinct leaf)", certsLoaded)
	}
	if sst := st2.Stats(); sst.Corrupt != 0 {
		t.Errorf("clean warm restart rejected %d entries", sst.Corrupt)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm-restart verdict diverged:\ncold: %+v\nwarm: %+v", cold, warm)
	}

	// and both agree with the certificate-free flat baseline
	flat, err := CheckEditorFlat(gridEditor(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	got := verdict{warm.Clean, warm.Mismatches}
	want := verdict{flat.Clean, flat.Mismatches}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("store-backed verdict diverged from flat baseline:\nstore: %+v\nflat:  %+v", got, want)
	}
}

// TestPersistTamperMatrix: every corruption mode over every entry of a
// populated store must degrade to a cold recompute with the identical
// verdict, the damage logged, and the bad entries quarantined.
func TestPersistTamperMatrix(t *testing.T) {
	baseline, _, _, st0 := warmSession(t, filepath.Join(t.TempDir(), "ref"), t.Logf)
	st0.Close()

	for _, mode := range []castore.Tamper{
		castore.TamperBitFlip, castore.TamperTruncate, castore.TamperVersionBump,
		castore.TamperZero, castore.TamperGarbage,
	} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "cache")
			_, _, _, st1 := warmSession(t, dir, t.Logf)
			st1.Close()
			n, err := castore.TamperEntries(dir, mode)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatal("tamper damaged no entries; the store wrote nothing?")
			}

			var logged strings.Builder
			logf := func(format string, args ...any) {
				logged.WriteString(strings.TrimSpace(strings.ReplaceAll(format, "%s", "_")) + "\n")
				t.Logf(format, args...)
			}
			res, stats, _, st2 := warmSession(t, dir, logf)
			defer st2.Close()
			if !reflect.DeepEqual(baseline, res) {
				t.Errorf("verdict diverged under %s corruption:\nwant %+v\ngot  %+v", mode, baseline, res)
			}
			if stats.DiskHits != 0 {
				t.Errorf("%d disk hits served from a fully corrupted store", stats.DiskHits)
			}
			if stats.Matched != 1 {
				t.Errorf("matches = %d after corruption, want 1 (cold recompute)", stats.Matched)
			}
			sst := st2.Stats()
			if sst.Corrupt == 0 {
				t.Error("corrupted entries were not detected")
			}
			if logged.Len() == 0 {
				t.Error("corruption recovery logged nothing")
			}
			// recovery re-populates: a third session is warm again
			_, stats3, _, st3 := warmSession(t, dir, t.Logf)
			defer st3.Close()
			if stats3.Matched != 0 || stats3.DiskHits != 1 {
				t.Errorf("store did not recover after corruption: %+v", stats3)
			}
		})
	}
}

// TestPersistConcurrentSessions: two store handles on one directory
// (the concurrent-riot-invocation shape) must both verify correctly.
// Run with -race.
func TestPersistConcurrentSessions(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	done := make(chan *Result, 2)
	for k := 0; k < 2; k++ {
		go func() {
			e := gridEditor(t, 4)
			st, err := castore.Open(dir)
			if err != nil {
				t.Error(err)
				done <- nil
				return
			}
			defer st.Close()
			v := &verify.Verifier{}
			inc := &Incremental{}
			inc.AttachDisk(st, &castore.Signer{}, v)
			res, err := inc.Check(e, v)
			if err != nil {
				t.Error(err)
				done <- nil
				return
			}
			done <- res
		}()
	}
	a, b := <-done, <-done
	if a == nil || b == nil {
		t.Fatal("a concurrent session failed")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("concurrent sessions disagree:\n%+v\n%+v", a, b)
	}
	mustClean(t, a, nil, "concurrent session")
}

// TestPersistShallowReachRecomputes: an entry stored at a shallow
// reach must not serve a session that needs deeper boundary retention.
// nandQuad's overlapping pairs force reach growth beyond the base
// contract; priming the store with the plain grid first ensures the
// SRCELL entry on disk carries only base reach.
func TestPersistShallowReachRecomputes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	_, _, _, st1 := warmSession(t, dir, t.Logf)
	st1.Close()

	// a second design reusing the same leaf content at a deep overlap:
	// correctness requires either a deep-enough disk entry or a
	// recompute — the verdict must match the cache-free baseline
	e := gridEditor(t, 2)
	e.MoveInstance(e.Cell.Instances[1], geom.Pt(-6*lam, 0))
	flat, err := CheckEditorFlat(e)
	if err != nil {
		t.Fatal(err)
	}

	e2 := gridEditor(t, 2)
	e2.MoveInstance(e2.Cell.Instances[1], geom.Pt(-6*lam, 0))
	st, err := castore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	v := &verify.Verifier{}
	inc := &Incremental{}
	inc.AttachDisk(st, &castore.Signer{}, v)
	res, err := inc.Check(e2, v)
	if err != nil {
		t.Fatal(err)
	}
	got := verdict{res.Clean, res.Mismatches}
	want := verdict{flat.Clean, flat.Mismatches}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("store-backed overlap verdict diverged:\nstore: %+v\nflat:  %+v", got, want)
	}
}
