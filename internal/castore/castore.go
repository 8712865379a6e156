// Package castore is Riot's crash-safe, corruption-tolerant on-disk
// content-addressed store: the persistence layer under the
// hierarchical engine's per-cell certificates. Invalidation is already
// solved one level up — every client keys its entries by a content
// signature of the cell geometry the entry was derived from (see
// sig.go) — so the store's whole job is robustness: a truncated,
// bit-flipped, version-skewed, or concurrently-written entry must
// degrade to a cache miss (a cold recompute), never to a wrong
// payload.
//
// # On-disk layout
//
//	<dir>/MANIFEST                    store format marker (flock target)
//	<dir>/<ns>/<kk>/<keyhex>          one entry per (namespace, key)
//	<dir>/tmp/...                     in-flight writes (crash debris is
//	                                  harmless and swept on Open)
//	<dir>/quarantine/...              entries that failed validation
//
// <ns> is the client namespace: "hiercert", the one family in use.
// Namespaces older riot versions wrote are never read. <keyhex> is the
// hex SHA-256 content key, <kk> its first two hex digits (fan-out).
// Every entry file is self-validating:
//
//	offset  size  field
//	0       4     magic "RCAS"
//	4       4     store format version (little-endian uint32)
//	8       8     schema fingerprint (little-endian uint64) — a hash of
//	              the client's payload encoding version, so a payload
//	              whose Go-side struct layout changed reads as skew,
//	              not as garbage
//	16      8     payload length (little-endian uint64)
//	24      4     CRC-32C (Castagnoli) of the payload
//	28      n     payload
//
// A load that hits a short file, wrong magic, version or fingerprint
// skew, a length mismatch, or a checksum failure logs the reason,
// moves the entry to quarantine/ (best-effort; deleted if the move
// fails), counts it in Stats, and reports a miss. The checksum is an
// integrity check against accidental corruption, not an authenticity
// check: payload decoders must still validate what they read.
//
// # Crash safety and concurrency
//
// Writes are atomic: the entry is written to <dir>/tmp, fsynced, and
// renamed into place, so a crash mid-write leaves the previous entry
// (or no entry) intact and at worst some tmp debris. Concurrent
// processes sharing one directory are safe the same way — rename is
// atomic within the filesystem, and the last writer of a key wins with
// a whole file. The MANIFEST file is the store's advisory-lock target.
// A Put holds a shared flock on it from creating its temp file to
// renaming it. Open takes the exclusive flock to validate, create or
// recover the manifest (a manifest with a different format version
// quarantines the entry tree and re-initializes) and to sweep tmp/, so
// a sweep never removes another handle's or process's in-flight write.
// No lock outlives the call that took it — holding one for the store's
// lifetime would make every later Open on the directory block behind a
// long-running process, which is exactly the concurrent-invocation
// shape the store exists to support.
package castore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"riot/internal/faultinject"
	"riot/internal/obs"
)

// Version is the store format version written to entry headers and the
// manifest. Bump it when the container format itself changes; clients
// version their payload encodings through schema fingerprints instead.
const Version = 1

const (
	magic      = "RCAS"
	headerSize = 28
	manifest   = "MANIFEST"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stats is the store's cumulative accounting.
type Stats struct {
	Hits        int // Get calls served from a valid entry
	Misses      int // Get calls with no entry on disk
	Puts        int // entries written
	PutErrors   int // writes that failed (logged, not fatal)
	Corrupt     int // entries rejected by validation (any reason)
	Quarantined int // rejected entries moved aside (vs deleted)
}

// Store is one process's handle on a cache directory. The zero value
// and the nil pointer are valid, permanently-cold stores: every Get
// misses and every Put is a no-op, so clients can hold an optional
// *Store without guarding call sites.
type Store struct {
	// Log receives one line per noteworthy event (quarantines, write
	// failures); nil means the default obs.Stderr. Set obs.Discard to
	// silence, or a capture func to test. Set it before sharing the
	// store.
	Log obs.Logger
	// Trace, when enabled, receives one typed EventCorrupt per
	// rejected entry. Set it before sharing the store.
	Trace *obs.Trace
	// Faults is the optional fault-injection set (faultinject.Set); a
	// nil set never fires. The StoreCorrupt point flips a payload byte
	// after the disk read, driving the validate→quarantine→recompute
	// path on demand. Set it before sharing the store.
	Faults *faultinject.Set

	dir string

	mu    sync.Mutex
	stats Stats
}

// Open opens (creating if needed) the store rooted at dir. A manifest
// written by an incompatible store version is treated as total skew:
// under an exclusive lock the existing entry tree is quarantined and
// the store re-initialized empty — a cold start, never a misread.
// Crash debris under tmp/ is swept. Both run under the exclusive flock
// on the manifest.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	mf, err := os.OpenFile(filepath.Join(dir, manifest), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	defer mf.Close()
	if err := flock(mf, true); err != nil {
		return nil, fmt.Errorf("castore: lock %s: %w", mf.Name(), err)
	}
	defer flock(mf, false)
	s := &Store{dir: dir}
	if err := s.ensureManifest(mf); err != nil {
		return nil, err
	}
	s.sweepTmp()
	return s, nil
}

// Close marks the store unused. No resource outlives Open (locks are
// transient and entry I/O is per-call), so Close exists for call-site
// symmetry; entries already written stay valid.
func (s *Store) Close() error { return nil }

// Dir returns the store's root directory ("" for a nil/zero store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Stats returns a snapshot of the store's accounting.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Store) logf(format string, args ...any) {
	if s.Log != nil {
		s.Log(format, args...)
		return
	}
	obs.Stderr(format, args...)
}

func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// ensureManifest validates the manifest and, when it is missing or
// skewed, creates or recovers it. The caller holds the exclusive flock.
func (s *Store) ensureManifest(mf *os.File) error {
	want := fmt.Sprintf("riot-castore %d\n", Version)
	data, err := readManifest(mf)
	if err != nil {
		return fmt.Errorf("castore: manifest: %w", err)
	}
	switch {
	case string(data) == want:
		return nil
	case len(data) == 0:
		// fresh store
	default:
		// version skew or torn manifest: quarantine the whole entry
		// tree and start cold
		s.logf("castore: %s: manifest skew (%q), starting cold", s.dir, strings.TrimSpace(string(data)))
		s.quarantineTree()
	}
	if err := mf.Truncate(0); err != nil {
		return fmt.Errorf("castore: manifest: %w", err)
	}
	if _, err := mf.WriteAt([]byte(want), 0); err != nil {
		return fmt.Errorf("castore: manifest: %w", err)
	}
	return mf.Sync()
}

func readManifest(mf *os.File) ([]byte, error) {
	return io.ReadAll(io.NewSectionReader(mf, 0, 256))
}

// quarantineTree moves every namespace directory aside (best-effort:
// removed when the move fails). tmp and quarantine itself stay.
func (s *Store) quarantineTree() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	qdir := filepath.Join(s.dir, "quarantine")
	os.MkdirAll(qdir, 0o755)
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "quarantine" || e.Name() == "tmp" {
			continue
		}
		src := filepath.Join(s.dir, e.Name())
		dst := filepath.Join(qdir, "skew-"+e.Name())
		for n := 0; ; n++ {
			if n > 0 {
				dst = filepath.Join(qdir, fmt.Sprintf("skew-%s.%d", e.Name(), n))
			}
			if _, err := os.Stat(dst); os.IsNotExist(err) {
				break
			}
			if n > 100 {
				dst = ""
				break
			}
		}
		if dst == "" || os.Rename(src, dst) != nil {
			os.RemoveAll(src)
		}
	}
}

// sweepTmp removes in-flight write debris left by crashed processes.
// Entries under tmp were never renamed into place, so removing them
// cannot lose committed data; the caller holds the exclusive flock, so
// no live Put has a temp file there.
func (s *Store) sweepTmp() {
	tmp := filepath.Join(s.dir, "tmp")
	entries, err := os.ReadDir(tmp)
	if err != nil {
		return
	}
	for _, e := range entries {
		os.Remove(filepath.Join(tmp, e.Name()))
	}
}

// entryPath returns the entry file path for (ns, key).
func (s *Store) entryPath(ns string, key Key) string {
	hex := key.String()
	return filepath.Join(s.dir, ns, hex[:2], hex)
}

// Get loads the payload stored under (ns, key). fingerprint is the
// client's payload schema fingerprint; an entry written under a
// different fingerprint is version skew and misses. Any malformed
// entry — short, truncated, bit-flipped, skewed — is logged,
// quarantined and reported as a miss.
func (s *Store) Get(ns string, key Key, fingerprint uint64) ([]byte, bool) {
	if s == nil || s.dir == "" {
		return nil, false
	}
	path := s.entryPath(ns, key)
	data, err := os.ReadFile(path)
	if err != nil {
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false
	}
	if s.Faults.Hit(faultinject.StoreCorrupt, ns) && len(data) > 0 {
		data = append([]byte(nil), data...)
		data[len(data)-1] ^= 0x01
	}
	payload, reason := validate(data, fingerprint)
	if reason != "" {
		s.reject(ns, key, path, reason)
		return nil, false
	}
	s.count(func(st *Stats) { st.Hits++ })
	return payload, true
}

// validate checks an entry image and returns its payload, or the
// rejection reason.
func validate(data []byte, fingerprint uint64) ([]byte, string) {
	if len(data) < headerSize {
		return nil, fmt.Sprintf("truncated header (%d bytes)", len(data))
	}
	if string(data[:4]) != magic {
		return nil, "bad magic"
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
		return nil, fmt.Sprintf("store version skew (%d, want %d)", v, Version)
	}
	if fp := binary.LittleEndian.Uint64(data[8:16]); fp != fingerprint {
		return nil, fmt.Sprintf("schema fingerprint skew (%#x, want %#x)", fp, fingerprint)
	}
	n := binary.LittleEndian.Uint64(data[16:24])
	if n != uint64(len(data)-headerSize) {
		return nil, fmt.Sprintf("length mismatch (header %d, file %d)", n, len(data)-headerSize)
	}
	payload := data[headerSize:]
	if sum := crc32.Checksum(payload, castagnoli); sum != binary.LittleEndian.Uint32(data[24:28]) {
		return nil, "checksum mismatch"
	}
	return payload, ""
}

// reject logs, counts and quarantines a bad entry.
func (s *Store) reject(ns string, key Key, path, reason string) {
	s.logf("castore: %s/%s: %s; entry quarantined, recomputing cold", ns, key.Short(), reason)
	if s.Trace.Enabled() {
		s.Trace.Event(obs.EventCorrupt, fmt.Sprintf("%s/%s: %s", ns, key.Short(), reason))
	}
	qdir := filepath.Join(s.dir, "quarantine")
	dst := filepath.Join(qdir, ns+"-"+key.String())
	moved := os.MkdirAll(qdir, 0o755) == nil && os.Rename(path, dst) == nil
	if !moved {
		os.Remove(path)
	}
	s.count(func(st *Stats) {
		st.Corrupt++
		st.Misses++
		if moved {
			st.Quarantined++
		}
	})
}

// Discard removes the entry stored under (ns, key), quarantining it
// with the given reason. Clients call it when a payload passed the
// store's integrity checks but failed their own decoding — schema
// drift the fingerprint did not capture — so the next run recomputes
// instead of tripping again.
func (s *Store) Discard(ns string, key Key, reason string) {
	if s == nil || s.dir == "" {
		return
	}
	path := s.entryPath(ns, key)
	if _, err := os.Stat(path); err != nil {
		return
	}
	s.reject(ns, key, path, reason)
	// reject counts a miss; Discard is not a lookup
	s.count(func(st *Stats) { st.Misses-- })
}

// Put stores payload under (ns, key) with the client's schema
// fingerprint. The write is atomic (tmp file + fsync + rename): a
// crash at any point leaves either the previous entry or the new one,
// never a torn file. Failures are logged and counted, not returned —
// a cache that cannot write is merely cold.
func (s *Store) Put(ns string, key Key, fingerprint uint64, payload []byte) {
	if s == nil || s.dir == "" {
		return
	}
	if err := s.put(ns, key, fingerprint, payload); err != nil {
		s.logf("castore: put %s/%s: %v", ns, key.Short(), err)
		s.count(func(st *Stats) { st.PutErrors++ })
		return
	}
	s.count(func(st *Stats) { st.Puts++ })
}

func (s *Store) put(ns string, key Key, fingerprint uint64, payload []byte) error {
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint64(hdr[8:16], fingerprint)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[24:28], crc32.Checksum(payload, castagnoli))

	// the shared flock keeps Open's sweep off the temp file until the
	// rename; closing the manifest releases it
	mf, err := os.Open(filepath.Join(s.dir, manifest))
	if err != nil {
		return err
	}
	defer mf.Close()
	if err := flockShared(mf); err != nil {
		return fmt.Errorf("lock %s: %w", mf.Name(), err)
	}
	tmpDir := filepath.Join(s.dir, "tmp")
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(tmpDir, "put-*")
	if err != nil {
		return err
	}
	tmpName := f.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	final := s.entryPath(ns, key)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return err
	}
	return os.Rename(tmpName, final)
}

// Fingerprint hashes a client's schema identity strings into the
// fingerprint written to entry headers. Clients include their payload
// encoding version and any process-wide constant the payload depends
// on (rules.Lambda, contract reaches), so changing either reads old
// entries as skew instead of misdecoding them.
func Fingerprint(parts ...string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime64
		}
		h ^= 0xff // field separator
		h *= prime64
	}
	return h
}
