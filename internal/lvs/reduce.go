package lvs

import (
	"slices"

	"riot/internal/sticks"
)

// Series/parallel device reduction. Transistor-level netlists carry
// arbitrary orderings a comparison must not see: the two transistors
// of a NAND pulldown stack appear in layout order, parallel drive legs
// in placement order, and source/drain are interchangeable. Reducing
// both sides first makes those choices invisible:
//
//   - parallel devices (same kind, same gate signature, same channel
//     net pair) collapse into one device with a multiplicity;
//   - series devices (two mult-1 devices of one kind whose shared
//     channel net carries nothing else — no third pin, no gate, no
//     label) collapse into one compound device whose gate signature is
//     the multiset union, erasing the stack order; the interior net
//     disappears from the reduced space.
//
// Reduction runs to a fixpoint (a collapse can expose another) and is
// a pure function of the abstract graph: renaming nets or reordering
// devices cannot change the reduced structure. Floating nets — no
// device pin, no label — are dropped here too, on both sides alike, so
// electrically meaningless material (glass openings, decorations)
// never reaches the matcher.

// rdev is a reduced device: a kind, a sorted gate-net multiset, an
// unordered channel pair and a parallel multiplicity.
type rdev struct {
	kind  sticks.DeviceKind
	gates []int32 // sorted
	a, b  int32   // a <= b
	mult  int32
}

// rnetlist is the reduced form of one Netlist side.
type rnetlist struct {
	nets       int    // original net id space (ids index the slices below)
	alive      []bool // net exists in the reduced netlist
	devs       []rdev
	labeled    []bool         // net carries at least one label
	labelNet   map[string]int // label -> net (shared with the input netlist)
	aliveCount int

	labelsMemo [][]string // lazy per-net label lists, report paths only
}

// labelsOf returns the net's labels (unsorted; report paths sort what
// they emit). The per-net lists are derived lazily — building them
// eagerly would put an allocation per label on the clean path.
func (r *rnetlist) labelsOf(n int32) []string {
	if r.labelsMemo == nil {
		r.labelsMemo = make([][]string, r.nets)
		for name, net := range r.labelNet {
			r.labelsMemo[net] = append(r.labelsMemo[net], name)
		}
	}
	return r.labelsMemo[n]
}

// reduce builds the reduced netlist of one side.
func reduce(n *Netlist) *rnetlist {
	r := &rnetlist{
		nets:     n.NetCount,
		alive:    make([]bool, n.NetCount),
		labeled:  make([]bool, n.NetCount),
		labelNet: n.Labels, // shared read-only with the input netlist
	}
	for _, net := range n.Labels {
		r.labeled[net] = true
	}
	r.devs = make([]rdev, 0, len(n.Devices))
	for _, d := range n.Devices {
		a, b := int32(d.A), int32(d.B)
		if b < a {
			a, b = b, a
		}
		r.devs = append(r.devs, rdev{kind: d.Kind, gates: []int32{int32(d.Gate)}, a: a, b: b, mult: 1})
	}

	// parallel grouping hashes every device; run it only when a series
	// collapse or a prune could have created new parallel candidates
	r.mergeParallel()
	for {
		collapsed := r.mergeSeries()
		pruned := r.pruneDangling()
		if !collapsed && !pruned {
			break
		}
		r.mergeParallel()
	}

	// a net is alive if anything still references it
	for _, d := range r.devs {
		r.alive[d.a] = true
		r.alive[d.b] = true
		for _, g := range d.gates {
			r.alive[g] = true
		}
	}
	for net, lab := range r.labeled {
		if lab {
			r.alive[net] = true
		}
	}
	for _, a := range r.alive {
		if a {
			r.aliveCount++
		}
	}
	return r
}

// devKey canonically encodes a device for the parallel grouping.
func devKey(d rdev) string {
	buf := make([]byte, 0, 16+8*len(d.gates))
	put := func(v int32) {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	buf = append(buf, byte(d.kind))
	put(d.a)
	put(d.b)
	for _, g := range d.gates {
		put(g)
	}
	return string(buf)
}

// mergeParallel collapses identical devices into multiplicities,
// keeping first-occurrence order. Reports whether anything merged.
func (r *rnetlist) mergeParallel() bool {
	seen := map[string]int{}
	out := r.devs[:0]
	merged := false
	for _, d := range r.devs {
		key := devKey(d)
		if at, ok := seen[key]; ok {
			out[at].mult += d.mult
			merged = true
			continue
		}
		seen[key] = len(out)
		out = append(out, d)
	}
	r.devs = out
	return merged
}

// mergeSeries collapses one round of series stacks: interior nets with
// exactly two channel pins and nothing else fold their two devices
// into one. Reports whether anything collapsed.
func (r *rnetlist) mergeSeries() bool {
	// channel-pin and gate-pin incidence per net
	chanPins := make([][]int, r.nets)
	gatePinned := make([]bool, r.nets)
	for i, d := range r.devs {
		chanPins[d.a] = append(chanPins[d.a], i)
		if d.b != d.a {
			chanPins[d.b] = append(chanPins[d.b], i)
		} else {
			chanPins[d.a] = append(chanPins[d.a], i)
		}
		for _, g := range d.gates {
			gatePinned[g] = true
		}
	}
	dead := make([]bool, len(r.devs))
	collapsed := false
	for net := 0; net < r.nets; net++ {
		pins := chanPins[net]
		if len(pins) != 2 || pins[0] == pins[1] || gatePinned[net] || r.labeled[net] {
			continue
		}
		i, j := pins[0], pins[1]
		if dead[i] || dead[j] {
			continue // already consumed this round; the next round retries
		}
		di, dj := r.devs[i], r.devs[j]
		if di.kind != dj.kind || di.mult != 1 || dj.mult != 1 {
			continue
		}
		// the compound device spans the two outer ends
		a := otherEnd(di, int32(net))
		b := otherEnd(dj, int32(net))
		if a < 0 || b < 0 {
			continue
		}
		if b < a {
			a, b = b, a
		}
		gates := make([]int32, 0, len(di.gates)+len(dj.gates))
		gates = append(gates, di.gates...)
		gates = append(gates, dj.gates...)
		slices.Sort(gates)
		r.devs[i] = rdev{kind: di.kind, gates: gates, a: a, b: b, mult: 1}
		dead[j] = true
		collapsed = true
	}
	if !collapsed {
		return false
	}
	out := r.devs[:0]
	for i, d := range r.devs {
		if !dead[i] {
			out = append(out, d)
		}
	}
	r.devs = out
	return true
}

// pruneDangling removes devices with a dead channel end: a channel net
// carrying exactly that one pin and no label has no current path, so
// the device conducts nothing (an unconnected pass transistor's
// source/drain stubs, half-wired devices mid-edit). Pruning is a pure
// function of the graph — both sides prune identically — and a device
// dangling on one side only still mismatches, because its live twin
// survives on the other. Without this pass, every such stub is a
// 2-element automorphic orbit the canonical matcher would have to
// individualize one by one.
func (r *rnetlist) pruneDangling() bool {
	pins := make([]int32, r.nets)
	for _, d := range r.devs {
		pins[d.a]++
		pins[d.b]++
		for _, g := range d.gates {
			pins[g]++
		}
	}
	dead := func(n int32) bool {
		return pins[n] == 1 && !r.labeled[n]
	}
	out := r.devs[:0]
	pruned := false
	for _, d := range r.devs {
		if (dead(d.a) && d.a != d.b) || (dead(d.b) && d.a != d.b) {
			pruned = true
			continue
		}
		out = append(out, d)
	}
	r.devs = out
	return pruned
}

// otherEnd returns the channel end of d that is not net, or -1 when
// both ends are net (a self-loop cannot series-collapse).
func otherEnd(d rdev, net int32) int32 {
	switch {
	case d.a == net && d.b != net:
		return d.b
	case d.b == net && d.a != net:
		return d.a
	}
	return -1
}
