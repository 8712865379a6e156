package castore

import (
	"sync"
	"sync/atomic"
)

// Blob is the minimal content-addressed surface the hierarchical
// engine's certificates load and store through. Three implementations
// exist: the on-disk Store (durable across processes), the in-process
// Mem store (shared across a server's sessions), and Tiered, which
// stacks one over the other. All three tolerate concurrent callers.
type Blob interface {
	// Get returns the payload stored under (ns, key) when its format
	// fingerprint matches, with ok reporting the hit. The returned bytes
	// are read-only: implementations may hand the same backing array to
	// every caller.
	Get(ns string, key Key, fingerprint uint64) (payload []byte, ok bool)
	// Put stores payload under (ns, key, fingerprint), overwriting any
	// previous entry.
	Put(ns string, key Key, fingerprint uint64, payload []byte)
	// Discard removes the entry, recording why (a decode failure, a
	// semantic mismatch) so a poisoned entry is not served twice.
	Discard(ns string, key Key, reason string)
}

var (
	_ Blob = (*Store)(nil)
	_ Blob = (*Mem)(nil)
	_ Blob = (*Tiered)(nil)
)

// Mem is a process-wide in-memory content-addressed store: the shared
// tier a design server attaches under every session's caches, so any
// session deriving a certificate warms every other session. Entries
// live until discarded; content addressing makes eviction a pure
// space/speed trade-off, never a correctness concern. The zero value
// is not usable; call NewMem. Safe for concurrent use: one mutex
// guards the map, which a session reaches once per distinct (cell,
// orientation).
type Mem struct {
	mu sync.Mutex
	m  map[memKey]memEntry

	hits, misses, puts, discards atomic.Int64
}

type memKey struct {
	ns  string
	key Key
}

type memEntry struct {
	fp      uint64
	payload []byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{m: map[memKey]memEntry{}} }

// Get returns the stored payload. The bytes are shared — callers must
// not modify them (the codec layer above never does; it decodes).
func (m *Mem) Get(ns string, key Key, fingerprint uint64) ([]byte, bool) {
	if m == nil {
		return nil, false
	}
	m.mu.Lock()
	e, ok := m.m[memKey{ns, key}]
	m.mu.Unlock()
	if !ok || e.fp != fingerprint {
		m.misses.Add(1)
		return nil, false
	}
	m.hits.Add(1)
	return e.payload, true
}

// Put stores a private copy of payload under (ns, key, fingerprint).
func (m *Mem) Put(ns string, key Key, fingerprint uint64, payload []byte) {
	if m == nil {
		return
	}
	p := append([]byte(nil), payload...)
	m.mu.Lock()
	m.m[memKey{ns, key}] = memEntry{fp: fingerprint, payload: p}
	m.mu.Unlock()
	m.puts.Add(1)
}

// Discard removes the entry. The reason is accepted for interface
// compatibility; in-memory entries carry no provenance worth logging.
func (m *Mem) Discard(ns string, key Key, reason string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	_, ok := m.m[memKey{ns, key}]
	delete(m.m, memKey{ns, key})
	m.mu.Unlock()
	if ok {
		m.discards.Add(1)
	}
}

// MemStats is a point-in-time account of an in-memory store.
type MemStats struct {
	Hits, Misses, Puts, Discards int
	Entries                      int
	Bytes                        int
}

// Stats reports the store's counters and current size.
func (m *Mem) Stats() MemStats {
	if m == nil {
		return MemStats{}
	}
	st := MemStats{
		Hits:     int(m.hits.Load()),
		Misses:   int(m.misses.Load()),
		Puts:     int(m.puts.Load()),
		Discards: int(m.discards.Load()),
	}
	m.mu.Lock()
	st.Entries = len(m.m)
	for _, e := range m.m {
		st.Bytes += len(e.payload)
	}
	m.mu.Unlock()
	return st
}

// Tiered stacks the in-memory store over the on-disk store: reads try
// memory first and promote disk hits, writes and discards go to both.
// Either tier may be nil (nil *Store is the documented permanently-cold
// store). Safe for concurrent use.
type Tiered struct {
	Mem  *Mem
	Disk *Store
}

// Get reads through the tiers, promoting a disk hit into memory so the
// next session pays no disk read.
func (t *Tiered) Get(ns string, key Key, fingerprint uint64) ([]byte, bool) {
	if p, ok := t.Mem.Get(ns, key, fingerprint); ok {
		return p, true
	}
	p, ok := t.Disk.Get(ns, key, fingerprint)
	if ok {
		t.Mem.Put(ns, key, fingerprint, p)
	}
	return p, ok
}

// Put writes through to both tiers.
func (t *Tiered) Put(ns string, key Key, fingerprint uint64, payload []byte) {
	t.Mem.Put(ns, key, fingerprint, payload)
	t.Disk.Put(ns, key, fingerprint, payload)
}

// Discard removes the entry from both tiers.
func (t *Tiered) Discard(ns string, key Key, reason string) {
	t.Mem.Discard(ns, key, reason)
	t.Disk.Discard(ns, key, reason)
}
