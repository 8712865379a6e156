package hier

import (
	"testing"

	"riot/internal/geom"
)

// FuzzDecodeCert hardens the certificate decoder against arbitrary
// store payloads: a corrupt certificate must decode to a clean error —
// never a panic, never a hang — because the persistence path trusts
// decodeCert to reject anything the content signature let through
// (truncation inside a valid CRC window, version skew, store bugs).
// Valid encodings seed the corpus so mutations explore the format's
// neighborhood rather than random noise.
func FuzzDecodeCert(f *testing.F) {
	e := New()
	if _, ok := e.Verify(srArray(f, 2, 2, geom.R0)); !ok {
		f.Fatal("engine declined the seed array")
	}
	for _, ct := range e.memo {
		f.Add(encodeCert(ct))
	}
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := decodeCert(data)
		if err != nil {
			return
		}
		// a payload that decodes must be structurally usable: the
		// engine reads these fields unguarded after a disk load
		if ct.X == nil || ct.D == nil {
			t.Fatalf("decode accepted a certificate with nil halves: %+v", ct)
		}
		x := ct.X
		if len(x.FragNet) > 0 && x.NetCount <= 0 {
			t.Fatalf("decode accepted fragments with no nets: %d frags, %d nets",
				len(x.FragNet), x.NetCount)
		}
		// the engine sizes its union-find by NetCount, indexes
		// terminals unguarded unless Pend, and declines on Pend
		if x.NetCount < 0 || x.NetCount > len(x.Frags) {
			t.Fatalf("decode accepted net count %d for %d fragments", x.NetCount, len(x.Frags))
		}
		pend := false
		for _, d := range x.Devices {
			for _, n := range [3]int32{d.GateNet, d.ANet, d.BNet} {
				if n < -1 || int(n) >= x.NetCount {
					t.Fatalf("decode accepted device terminal %d of %d nets", n, x.NetCount)
				}
				pend = pend || n < 0
			}
		}
		if pend != x.Pend {
			t.Fatalf("decode accepted pend flag %v against terminals that say %v", x.Pend, pend)
		}
	})
}
