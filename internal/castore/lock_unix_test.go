//go:build unix

package castore

import (
	"bytes"
	"testing"
)

// TestOpenStormKeepsInFlightPuts: Open sweeps tmp/ only under the
// exclusive flock and a Put holds the shared one until its rename, so
// an Open never removes another handle's in-flight temp file. One
// handle puts entries while a goroutine keeps opening the directory;
// every put must land. (Where flock is a no-op, lock_other.go, nothing
// orders the two, and this file does not build.)
func TestOpenStormKeepsInFlightPuts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Log = t.Logf
	stop, done := make(chan struct{}), make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := Open(dir); err != nil {
				done <- err
				return
			}
		}
	}()
	payload := bytes.Repeat([]byte("riot"), 1024)
	const n = 20
	for i := 0; i < n; i++ {
		s.Put("ns", testKey(byte(i)), testFP, payload)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Puts != n || st.PutErrors != 0 {
		t.Fatalf("stats = %+v; want %d puts and no put error", st, n)
	}
	for i := 0; i < n; i++ {
		if got, ok := s.Get("ns", testKey(byte(i)), testFP); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("entry %d lost under the Open storm", i)
		}
	}
}
