package castore

import (
	"bytes"
	"sync"
	"testing"

	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/sticks"
)

func memLeaf(t *testing.T, width int) *core.Cell {
	t.Helper()
	sc := &sticks.Cell{
		Name:  "M",
		Wires: []sticks.Wire{{Layer: geom.NM, Width: width, Points: []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}}},
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

// TestSignerMutateThenSign is the staleness regression: a leaf mutated
// in place (payload change + MarkMutated, the Invalidate path) must
// never be served its pre-mutation signature from the memo. A
// long-lived server Signer depends on this.
func TestSignerMutateThenSign(t *testing.T) {
	var sg Signer
	c := memLeaf(t, 4)
	k1, err := sg.Cell(c)
	if err != nil {
		t.Fatal(err)
	}
	// memo hit for the unchanged cell
	again, err := sg.Cell(c)
	if err != nil {
		t.Fatal(err)
	}
	if again != k1 {
		t.Fatal("memo returned a different signature for unchanged content")
	}

	c.Sticks.Wires[0].Width = 6
	c.MarkMutated()
	k2, err := sg.Cell(c)
	if err != nil {
		t.Fatal(err)
	}
	if k2 == k1 {
		t.Fatal("memo served the stale pre-mutation signature")
	}
	var fresh Signer
	want, err := fresh.Cell(c)
	if err != nil {
		t.Fatal(err)
	}
	if k2 != want {
		t.Fatal("post-mutation signature disagrees with a fresh signer")
	}
}

// TestSignerConcurrent hammers one Signer from many goroutines, then
// alternates exclusive mutation phases (the guard-held Invalidate
// discipline: nobody signs while a leaf payload changes in place) with
// concurrent signing phases, checking the memo settles on the true
// signature every round. Run under -race in CI.
func TestSignerConcurrent(t *testing.T) {
	var sg Signer
	shared := memLeaf(t, 4) // signed concurrently, never mutated
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := sg.Cell(shared); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	mut := memLeaf(t, 4)
	for round := 0; round < 5; round++ {
		// exclusive phase: mutate the payload in place and stamp the
		// revision, as an editor's Invalidate does under the design guard
		mut.Sticks.Wires[0].Width = 5 + round
		mut.MarkMutated()
		// concurrent phase: everyone signs the settled cell
		var rw sync.WaitGroup
		for g := 0; g < 8; g++ {
			rw.Add(1)
			go func() {
				defer rw.Done()
				for i := 0; i < 50; i++ {
					if _, err := sg.Cell(mut); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		rw.Wait()
		got, err := sg.Cell(mut)
		if err != nil {
			t.Fatal(err)
		}
		var fresh Signer
		want, err := fresh.Cell(mut)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round %d: memo served a stale signature after mutation", round)
		}
	}
}

// TestMemStore exercises the shared in-memory tier: round trips,
// fingerprint isolation, discards, private copies and counters.
func TestMemStore(t *testing.T) {
	m := NewMem()
	k := testKey(7)
	payload := []byte("shard")
	if _, ok := m.Get("ns", k, 1); ok {
		t.Fatal("hit on empty store")
	}
	m.Put("ns", k, 1, payload)
	got, ok := m.Get("ns", k, 1)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	// the stored copy is private: mutating the caller's slice must not
	// reach the store
	payload[0] = 'X'
	got, _ = m.Get("ns", k, 1)
	if !bytes.Equal(got, []byte("shard")) {
		t.Fatal("store shared the caller's backing array")
	}
	if _, ok := m.Get("ns", k, 2); ok {
		t.Fatal("fingerprint skew must miss")
	}
	if _, ok := m.Get("other", k, 1); ok {
		t.Fatal("namespace must separate entries")
	}
	m.Discard("ns", k, "test")
	if _, ok := m.Get("ns", k, 1); ok {
		t.Fatal("hit after discard")
	}
	st := m.Stats()
	if st.Hits != 2 || st.Puts != 1 || st.Discards != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// nil receiver is the permanently-cold store
	var nilMem *Mem
	if _, ok := nilMem.Get("ns", k, 1); ok {
		t.Fatal("nil Mem hit")
	}
	nilMem.Put("ns", k, 1, payload)
	nilMem.Discard("ns", k, "test")
}

// TestMemConcurrent drives concurrent puts/gets/discards over the
// map; the assertions are minimal — the point is the -race run.
func TestMemConcurrent(t *testing.T) {
	m := NewMem()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := testKey(byte(i % 32))
				switch i % 3 {
				case 0:
					m.Put("ns", k, uint64(g), []byte{byte(i)})
				case 1:
					m.Get("ns", k, uint64(g))
				default:
					m.Discard("ns", k, "churn")
				}
			}
		}(g)
	}
	wg.Wait()
	m.Stats()
}

// TestTieredPromote checks the read-through contract: a disk hit
// promotes into memory so the next reader pays no disk read, and
// writes land in both tiers.
func TestTieredPromote(t *testing.T) {
	disk, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	disk.Log = func(string, ...any) {}
	k := testKey(3)
	disk.Put("ns", k, 9, []byte("cold"))

	ti := &Tiered{Mem: NewMem(), Disk: disk}
	got, ok := ti.Get("ns", k, 9)
	if !ok || !bytes.Equal(got, []byte("cold")) {
		t.Fatalf("tiered Get through disk = %q, %v", got, ok)
	}
	if ti.Mem.Stats().Puts != 1 {
		t.Fatal("disk hit did not promote into memory")
	}
	diskHitsBefore := disk.Stats().Hits
	if _, ok := ti.Get("ns", k, 9); !ok {
		t.Fatal("promoted entry missed")
	}
	if disk.Stats().Hits != diskHitsBefore {
		t.Fatal("second read went to disk despite promotion")
	}

	ti.Put("ns", testKey(4), 9, []byte("warm"))
	if _, ok := disk.Get("ns", testKey(4), 9); !ok {
		t.Fatal("tiered Put did not write through to disk")
	}
	ti.Discard("ns", k, "test")
	if _, ok := ti.Get("ns", k, 9); ok {
		t.Fatal("hit after tiered discard")
	}
}
