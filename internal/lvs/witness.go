package lvs

import (
	"riot/internal/core"
	"riot/internal/extract"
)

// The walk-order witness: the certified path of every check the
// template witness leaves. The reference copies each leaf entry's
// devices per copy in flatten's walk order, and the layout — the hier
// engine's materialized circuit or the scratch flat solve — emits one
// transistor per walked device, so a layout that realizes the declared
// structure agrees with its reference index by index. The walk binds
// nets into one bijection, kept as two arrays: a reference net that
// lands on two layout nets (an open) breaks reference→layout, two
// reference nets on one layout net (a short) breaks layout→reference.
// The package doc gives the soundness argument.

// CertStats is one comparison's witness accounting. It is
// deterministic per design (independent of memo warmth), so cached and
// from-scratch runs produce identical Results.
type CertStats struct {
	// Occurrences counts the design's leaf occurrences; Certified is
	// all of them when a witness settled the comparison, none
	// otherwise.
	Occurrences int
	Certified   int
	// Fallback reports that the flat comparison decided the verdict.
	Fallback bool
}

// witness walks the reference and the layout index by index and
// returns how many nets it bound, or -1 when the walk fails. It holds
// when the device lists have one length and device i has one kind on
// both sides with its gate, A and B bound consistently, and the label
// tables have one length and every site is unresolved on both sides or
// resolved on both onto a bound pair.
func witness(ref *Netlist, lay *extract.Circuit) int {
	if len(ref.Devices) != len(lay.Transistors) || len(ref.Sites) != len(lay.Sites) {
		return -1
	}
	fwd, inv := make([]int32, ref.NetCount), make([]int32, lay.NetCount)
	for i := range fwd {
		fwd[i] = -1
	}
	for i := range inv {
		inv[i] = -1
	}
	bound := 0
	bind := func(r, l int) bool {
		if fwd[r] < 0 && inv[l] < 0 {
			fwd[r], inv[l] = int32(l), int32(r)
			bound++
		}
		return fwd[r] == int32(l)
	}
	for i, d := range ref.Devices {
		t := lay.Transistors[i]
		if d.Kind != t.Kind || !bind(d.Gate, t.Gate) || !bind(d.A, t.A) || !bind(d.B, t.B) {
			return -1
		}
	}
	for s, r := range ref.Sites {
		l := lay.Sites[s]
		if (r < 0) != (l < 0) || (r >= 0 && !bind(int(r), int(l))) {
			return -1
		}
	}
	return bound
}

// compare settles cell's check against the circuit extracted from it:
// clean when the witness holds, else the flat comparison of both
// tables, named, which gives every non-clean verdict and diagnostic.
// leaves is the design's leaf occurrence count.
func (rf *Reference) compare(cell *core.Cell, ref *Netlist, leaves int, ckt *extract.Circuit) *Result {
	st := CertStats{Occurrences: leaves}
	if nets := witness(ref, ckt); nets >= 0 {
		st.Certified = leaves
		n := len(ref.Devices)
		return &Result{Clean: true, RefNets: nets, LayNets: nets, RefDevices: n, LayDevices: n, Cert: st}
	}
	st.Fallback = true
	named, lay := *ref, FromCircuit(ckt, cell)
	named.Labels = core.LabelMap(cell, ref.Sites)
	rf.stats.NamesFormatted += len(named.Labels) + len(lay.Labels)
	res := Compare(&named, lay)
	res.Cert = st
	return res
}
