package castore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/sticks"
)

const testFP = 0xfeedface

func testKey(b byte) Key {
	var k Key
	for i := range k {
		k[i] = b
	}
	return k
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := []byte("hello, persistent world")
	s.Put("ns", testKey(1), testFP, payload)
	got, ok := s.Get("ns", testKey(1), testFP)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	if _, ok := s.Get("ns", testKey(2), testFP); ok {
		t.Fatal("Get of unwritten key reported a hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNilAndZeroStoreAreCold(t *testing.T) {
	var nilStore *Store
	if _, ok := nilStore.Get("ns", testKey(1), testFP); ok {
		t.Fatal("nil store hit")
	}
	nilStore.Put("ns", testKey(1), testFP, []byte("x")) // must not panic
	nilStore.Discard("ns", testKey(1), "because")
	if nilStore.Stats() != (Stats{}) {
		t.Fatal("nil store stats")
	}
	var zero Store
	if _, ok := zero.Get("ns", testKey(1), testFP); ok {
		t.Fatal("zero store hit")
	}
	zero.Put("ns", testKey(1), testFP, []byte("x"))
}

// TestTamperMatrix drives every corruption mode over a populated store
// and asserts each one degrades to a logged, quarantined miss — never
// a payload.
func TestTamperMatrix(t *testing.T) {
	for _, mode := range []Tamper{TamperBitFlip, TamperTruncate, TamperVersionBump, TamperZero, TamperGarbage} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var logged strings.Builder
			s.Log = func(f string, a ...any) { fmt.Fprintf(&logged, f+"\n", a...) }
			s.Put("ns", testKey(7), testFP, []byte("precious cached derivation"))

			n, err := TamperEntries(dir, mode)
			if err != nil || n != 1 {
				t.Fatalf("TamperEntries = %d, %v", n, err)
			}
			if _, ok := s.Get("ns", testKey(7), testFP); ok {
				t.Fatalf("%s: corrupted entry still served", mode)
			}
			st := s.Stats()
			if st.Corrupt != 1 {
				t.Fatalf("%s: Corrupt = %d, want 1", mode, st.Corrupt)
			}
			if logged.Len() == 0 {
				t.Fatalf("%s: rejection not logged", mode)
			}
			// the entry is gone from the hot path (a second Get is a
			// plain miss, not another corruption)
			if _, ok := s.Get("ns", testKey(7), testFP); ok {
				t.Fatalf("%s: entry resurrected", mode)
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("%s: quarantined entry rejected twice: %+v", mode, st)
			}
			// and a recompute can re-populate it
			s.Put("ns", testKey(7), testFP, []byte("recomputed"))
			if got, ok := s.Get("ns", testKey(7), testFP); !ok || string(got) != "recomputed" {
				t.Fatalf("%s: re-put failed: %q %v", mode, got, ok)
			}
		})
	}
}

func TestSchemaFingerprintSkew(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("ns", testKey(3), testFP, []byte("v1 payload"))
	if _, ok := s.Get("ns", testKey(3), testFP+1); ok {
		t.Fatal("fingerprint skew served a payload")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("skew not counted corrupt: %+v", st)
	}
}

func TestManifestVersionSkewStartsCold(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("ns", testKey(4), testFP, []byte("old world"))
	s.Close()

	if err := os.WriteFile(filepath.Join(dir, manifest), []byte("riot-castore 999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get("ns", testKey(4), testFP); ok {
		t.Fatal("entry survived a manifest version skew")
	}
	// the store works after recovery
	s2.Put("ns", testKey(4), testFP, []byte("new world"))
	if got, ok := s2.Get("ns", testKey(4), testFP); !ok || string(got) != "new world" {
		t.Fatalf("post-recovery store broken: %q %v", got, ok)
	}
}

// TestKillMidWrite simulates the two crash shapes a non-atomic writer
// would leave: debris in tmp/ (our writer, killed before rename) and a
// torn file at the final path (a hostile or pre-atomic writer).
func TestKillMidWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("ns", testKey(5), testFP, []byte("committed"))

	// crash shape 1: tmp debris; swept on next Open, never visible
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tmp", "put-crashed"), []byte("half a h"), 0o644); err != nil {
		t.Fatal(err)
	}
	// crash shape 2: torn file at a final entry path
	torn := s.entryPath("ns", testKey(6))
	if err := os.MkdirAll(filepath.Dir(torn), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, []byte("RCAS\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Stat(filepath.Join(dir, "tmp", "put-crashed")); !os.IsNotExist(err) {
		t.Fatal("tmp debris survived Open")
	}
	if got, ok := s2.Get("ns", testKey(5), testFP); !ok || string(got) != "committed" {
		t.Fatalf("committed entry lost: %q %v", got, ok)
	}
	if _, ok := s2.Get("ns", testKey(6), testFP); ok {
		t.Fatal("torn entry served")
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("torn entry not rejected: %+v", st)
	}
}

// TestConcurrentStores runs two handles on one directory, hammering
// overlapping keys from writer and reader goroutines. Rename atomicity
// must keep every observed payload whole — one of the written variants,
// never a splice.
func TestConcurrentStores(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	variant := func(worker, round int) []byte {
		return bytes.Repeat([]byte{byte(worker), byte(round)}, 64+worker*17+round)
	}
	const rounds = 40
	var wg sync.WaitGroup
	errs := make(chan string, 256)
	for w, s := range []*Store{a, b} {
		wg.Add(1)
		go func(w int, s *Store) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s.Put("ns", testKey(9), testFP, variant(w, r))
				if got, ok := s.Get("ns", testKey(9), testFP); ok {
					valid := false
					for ww := 0; ww < 2 && !valid; ww++ {
						for rr := 0; rr < rounds && !valid; rr++ {
							valid = bytes.Equal(got, variant(ww, rr))
						}
					}
					if !valid {
						errs <- fmt.Sprintf("worker %d round %d: torn payload (%d bytes)", w, r, len(got))
						return
					}
				}
			}
		}(w, s)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if st := a.Stats(); st.Corrupt > 0 {
		t.Errorf("concurrent same-process writers corrupted entries: %+v", st)
	}
}

func TestDecoderBounds(t *testing.T) {
	// a forged count must not drive a huge allocation: encode a count
	// of 2^40 "elements" into a tiny payload and decode
	var e Enc
	e.U64(1 << 40)
	d := NewDec(e.Bytes())
	if n := d.Len(8); n != 0 || d.Err() == nil {
		t.Fatalf("Len accepted forged count: n=%d err=%v", n, d.Err())
	}
	var e2 Enc
	e2.U64(1 << 50)
	d2 := NewDec(e2.Bytes())
	if s := d2.Str(); s != "" || d2.Err() == nil {
		t.Fatalf("Str accepted forged length: %q err=%v", s, d2.Err())
	}
	// trailing bytes are an error
	var e3 Enc
	e3.U64(1)
	e3.U8(0)
	d3 := NewDec(e3.Bytes())
	d3.U64()
	if d3.Done() == nil {
		t.Fatal("Done accepted trailing bytes")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	var e Enc
	e.U64(42)
	e.Int(-17)
	e.Bool(true)
	e.Str("näme")
	e.U8(250)
	d := NewDec(e.Bytes())
	if v := d.U64(); v != 42 {
		t.Fatalf("U64 = %d", v)
	}
	if v := d.Int(); v != -17 {
		t.Fatalf("Int = %d", v)
	}
	if !d.Bool() {
		t.Fatal("Bool = false")
	}
	if v := d.Str(); v != "näme" {
		t.Fatalf("Str = %q", v)
	}
	if v := d.U8(); v != 250 {
		t.Fatalf("U8 = %d", v)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestSignerContentIdentity pins the signature contract: equal content
// under different pointers signs equal; any content difference signs
// different.
func TestSignerContentIdentity(t *testing.T) {
	mk := func(wireWidth int) *core.Cell {
		sc := &sticks.Cell{
			Name:  "T",
			Wires: []sticks.Wire{{Layer: geom.NM, Width: wireWidth, Points: []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}}},
			Connectors: []sticks.Connector{
				{Name: "A", At: geom.Pt(0, 0), Layer: geom.NM},
				{Name: "B", At: geom.Pt(10, 0), Layer: geom.NM},
			},
		}
		c, err := core.NewLeafFromSticks(sc)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var sg Signer
	k1, err := sg.Cell(mk(4))
	if err != nil {
		t.Fatal(err)
	}
	k2, err := sg.Cell(mk(4))
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("identical content signed differently")
	}
	k3, err := sg.Cell(mk(6))
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k3 {
		t.Fatal("different content signed equal")
	}

	// composition signatures track placement
	comp := core.NewComposition("C")
	in := core.NewInstance("a", mk(4), geom.Translate(geom.Pt(100, 0)))
	comp.Instances = append(comp.Instances, in)
	c1, err := sg.Cell(comp)
	if err != nil {
		t.Fatal(err)
	}
	in.Tr = geom.Translate(geom.Pt(200, 0))
	c2, err := sg.Cell(comp)
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatal("moved instance did not change the composition signature")
	}
	// and replication
	in.Nx, in.Sx = 4, 400
	c3, err := sg.Cell(comp)
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c2 {
		t.Fatal("replication did not change the composition signature")
	}
}

func TestFingerprintSeparatesParts(t *testing.T) {
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Fatal("fingerprint field boundaries alias")
	}
	if Fingerprint("x") == Fingerprint("x", "") {
		t.Fatal("fingerprint ignores empty parts")
	}
}
