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
// verdicts never and wall-time only. The store holds the hierarchical
// engine's certificates; LVS keeps its memos in process, so every
// session extracts its one leaf itself. Every test compares
// a store-backed run against the cache-free flat baseline, both on a
// warm store and under every corruption mode, and asserts the results
// are deeply equal.

// warmSession runs one full LVS over a fresh 4x4 grid editor with the
// store at dir attached to the verifier, simulating one process
// lifetime (fresh cell pointers, fresh signer, fresh memos each call —
// only the directory persists). The layout side is the shipped
// hierarchical verifier; the int result counts its certificates loaded
// from the store.
func warmSession(t *testing.T, dir string, logf func(string, ...any)) (*Result, RefStats, int, *castore.Store) {
	t.Helper()
	e := gridEditor(t, 4)
	st, err := castore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Log = logf
	v := &verify.Verifier{Hier: true}
	v.AttachDisk(st, &castore.Signer{})
	inc := &Incremental{}
	res, err := inc.Check(e, v)
	if err != nil {
		t.Fatalf("store-backed check: %v", err)
	}
	return res, inc.Ref.Stats(), v.HierStats().CertDiskHits, st
}

// TestPersistWarmRestart: a second process over the same store
// directory must produce the identical verdict, loading the one hier
// certificate instead of rebuilding it and writing nothing. LVS
// extracts its one leaf in process on both runs.
func TestPersistWarmRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")

	cold, coldStats, coldLoads, st1 := warmSession(t, dir, t.Logf)
	mustClean(t, cold, nil, "cold store-backed run")
	if coldStats.LeavesExtracted != 1 || coldLoads != 0 {
		t.Fatalf("cold run extracted %d leaves and loaded %d hier certificates; want 1 and 0",
			coldStats.LeavesExtracted, coldLoads)
	}
	if got := st1.Stats(); got.Puts != 1 {
		t.Fatalf("cold run stored %d entries, want 1 (the leaf's hier certificate): %+v", got.Puts, got)
	}
	st1.Close()

	warm, warmStats, warmLoads, st2 := warmSession(t, dir, t.Logf)
	defer st2.Close()
	if warmStats.LeavesExtracted != 1 {
		t.Errorf("warm restart extracted %d leaves, want 1 (LVS memos live in process)", warmStats.LeavesExtracted)
	}
	if warmLoads != 1 {
		t.Errorf("warm restart loaded %d hier certificates from disk, want 1 (the one distinct leaf)", warmLoads)
	}
	if sst := st2.Stats(); sst.Corrupt != 0 || sst.Puts != 0 {
		t.Errorf("clean warm restart rejected %d entries and stored %d; want 0 and 0", sst.Corrupt, sst.Puts)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm-restart verdict diverged:\ncold: %+v\nwarm: %+v", cold, warm)
	}

	// and both agree with the witness-free flat baseline
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
			res, stats, loads, st2 := warmSession(t, dir, logf)
			defer st2.Close()
			if !reflect.DeepEqual(baseline, res) {
				t.Errorf("verdict diverged under %s corruption:\nwant %+v\ngot  %+v", mode, baseline, res)
			}
			if loads != 0 {
				t.Errorf("%d hier certificates loaded from a fully corrupted store", loads)
			}
			if stats.LeavesExtracted != 1 {
				t.Errorf("leaves extracted = %d after corruption, want 1", stats.LeavesExtracted)
			}
			sst := st2.Stats()
			if sst.Corrupt == 0 {
				t.Error("corrupted entries were not detected")
			}
			if logged.Len() == 0 {
				t.Error("corruption recovery logged nothing")
			}
			// recovery re-populates: a third session is warm again
			_, stats3, loads3, st3 := warmSession(t, dir, t.Logf)
			defer st3.Close()
			if loads3 != 1 || stats3.LeavesExtracted != 1 {
				t.Errorf("store did not recover after corruption: %d hier loads, %d leaves extracted; want 1 and 1",
					loads3, stats3.LeavesExtracted)
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
			v := &verify.Verifier{Hier: true}
			v.AttachDisk(st, &castore.Signer{})
			inc := &Incremental{}
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

// TestPersistDeepOverlapMatchesFlat: a store primed by the plain grid
// serves a second design that reuses the same leaf content at a deep
// overlap. Moving a copy 6 lambda into its neighbour deepens the
// reference's seam trust past the base contract; the store-backed
// verdict must match the cache-free flat baseline.
func TestPersistDeepOverlapMatchesFlat(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	_, _, _, st1 := warmSession(t, dir, t.Logf)
	st1.Close()

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
	v := &verify.Verifier{Hier: true}
	v.AttachDisk(st, &castore.Signer{})
	inc := &Incremental{}
	res, err := inc.Check(e2, v)
	if err != nil {
		t.Fatal(err)
	}
	if loads := v.HierStats().CertDiskHits; loads != 1 {
		t.Errorf("the primed store served %d hier certificates, want 1 (the shared leaf)", loads)
	}
	got := verdict{res.Clean, res.Mismatches}
	want := verdict{flat.Clean, flat.Mismatches}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("store-backed overlap verdict diverged:\nstore: %+v\nflat:  %+v", got, want)
	}
}
