package lvs

import "slices"

// Partition-refinement canonical labeling, the comparison core. Both
// reduced netlists are colored in ONE shared class space: a class is a
// claim that its members are mutually indistinguishable, and the claim
// is iteratively refined — a device's signature folds its kind,
// multiplicity and pin classes, a net's folds its own class and its
// incident (device class, pin role) multiset — until no class splits.
// Two isomorphic netlists always end with identical class histograms
// (every refinement step treats the sides identically), so any class
// whose member count differs between the sides is a structural
// mismatch.
//
// Refinement is split-only: when a class's members diverge into
// several signatures, one subgroup keeps the class id (the members the
// round did not touch, else the smallest signature) and the rest get
// fresh ids, in deterministic (class, signature) order. A round that
// merely recomputes identical signatures moves nothing, so work is
// proportional to actual refinement: the recoloring wavefront follows
// the frontier of changed classes and dies out once the partition is
// stable, instead of re-hashing the whole graph for its diameter. The
// frontier can over-refine — a node skipped because its neighborhood
// was quiet keeps its class even if a distant node coincidentally
// converged to the same signature — but it over-refines both sides
// identically (isomorphic twins dirty in the same rounds and hash to
// the same signatures), so verdicts are unaffected.
//
// Every dirty node's signature depends only on the previous round's
// classes; class ids are assigned afterwards, in deterministic node
// order.

// pinRef is one device incidence of a net.
type pinRef struct {
	dev  int32
	role int8 // 0 = channel, 1 = gate
}

// mside is one side's state inside the matcher.
type mside struct {
	r        *rnetlist
	netAdj   [][]pinRef
	netClass []int32 // -1 for dead nets
	devClass []int32
	netSig   []uint64 // last computed signature per net
	devSig   []uint64
}

// matcher refines the two sides to a stable shared partition.
type matcher struct {
	s     [2]*mside
	next  int32   // next fresh class id
	count []int32 // members per class, both sides combined
}

// newMatcher builds the matcher state. anchors assigns shared seed
// classes: anchors[side][net] > 0 means the net starts in that class
// (the same id on both sides for a consistent label cluster), 0 means
// the generic starting class. Devices all start in one class;
// seedCount is the highest anchor id in use.
func newMatcher(ref, lay *rnetlist, anchors [2][]int32, seedCount int32) *matcher {
	m := &matcher{next: seedCount + 2}
	m.count = make([]int32, m.next, m.next+64)
	for si, r := range []*rnetlist{ref, lay} {
		sd := &mside{
			r:        r,
			netAdj:   make([][]pinRef, r.nets),
			netClass: make([]int32, r.nets),
			devClass: make([]int32, len(r.devs)),
			netSig:   make([]uint64, r.nets),
			devSig:   make([]uint64, len(r.devs)),
		}
		for i, d := range r.devs {
			sd.netAdj[d.a] = append(sd.netAdj[d.a], pinRef{int32(i), 0})
			sd.netAdj[d.b] = append(sd.netAdj[d.b], pinRef{int32(i), 0})
			for _, g := range d.gates {
				sd.netAdj[g] = append(sd.netAdj[g], pinRef{int32(i), 1})
			}
		}
		for n := 0; n < r.nets; n++ {
			switch {
			case !r.alive[n]:
				sd.netClass[n] = -1
			case anchors[si] != nil && anchors[si][n] > 0:
				sd.netClass[n] = anchors[si][n]
				m.count[anchors[si][n]]++
			default:
				sd.netClass[n] = 0
				m.count[0]++
			}
		}
		// devices share the seed class just past the anchor ids
		devSeed := m.next - 1
		for i := range sd.devClass {
			sd.devClass[i] = devSeed
			m.count[devSeed]++
		}
		m.s[si] = sd
	}
	return m
}

// refineAll runs rounds to the fixpoint from an all-dirty frontier.
func (m *matcher) refineAll() {
	var devs, nets [2][]int32
	for si, sd := range m.s {
		for i := range sd.devClass {
			devs[si] = append(devs[si], int32(i))
		}
		for n := 0; n < sd.r.nets; n++ {
			if sd.netClass[n] >= 0 {
				nets[si] = append(nets[si], int32(n))
			}
		}
	}
	m.refineFrom(devs, nets)
}

// refineFrom alternates device and net recoloring until both frontiers
// die out. Only genuine class splits propagate, so the loop terminates
// after at most one split per node.
func (m *matcher) refineFrom(dirtyDevs, dirtyNets [2][]int32) {
	for len(dirtyDevs[0])+len(dirtyDevs[1])+len(dirtyNets[0])+len(dirtyNets[1]) > 0 {
		changedDevs := m.recolor(true, dirtyDevs)
		nextNets := dirtyNets
		for si, devs := range changedDevs {
			sd := m.s[si]
			for _, di := range devs {
				d := sd.r.devs[di]
				nextNets[si] = append(nextNets[si], d.a, d.b)
				nextNets[si] = append(nextNets[si], d.gates...)
			}
			nextNets[si] = dedupSorted(nextNets[si])
		}
		changedNets := m.recolor(false, nextNets)
		dirtyNets = [2][]int32{}
		dirtyDevs = [2][]int32{}
		for si, nets := range changedNets {
			sd := m.s[si]
			for _, n := range nets {
				for _, p := range sd.netAdj[n] {
					dirtyDevs[si] = append(dirtyDevs[si], p.dev)
				}
			}
			dirtyDevs[si] = dedupSorted(dirtyDevs[si])
		}
	}
}

// dedupSorted sorts and deduplicates a frontier id list.
func dedupSorted(ids []int32) []int32 {
	slices.Sort(ids)
	out := ids[:0]
	for i, v := range ids {
		if i == 0 || v != ids[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// devSigOf computes a device's current signature.
func (sd *mside) devSigOf(di int32, scratch *[]int32) uint64 {
	d := sd.r.devs[di]
	h := fnvMix(fnvOffset, uint64(uint32(sd.devClass[di])))
	h = fnvMix(h, uint64(d.kind))
	h = fnvMix(h, uint64(uint32(d.mult)))
	ca, cb := sd.netClass[d.a], sd.netClass[d.b]
	if cb < ca {
		ca, cb = cb, ca
	}
	h = fnvMix(h, uint64(uint32(ca)))
	h = fnvMix(h, uint64(uint32(cb)))
	g := (*scratch)[:0]
	for _, gn := range d.gates {
		g = append(g, sd.netClass[gn])
	}
	slices.Sort(g)
	for _, c := range g {
		h = fnvMix(h, uint64(uint32(c)))
	}
	*scratch = g
	return h
}

// netSigOf computes a net's current signature.
func (sd *mside) netSigOf(n int32, scratch *[]uint64) uint64 {
	h := fnvMix(fnvOffset, uint64(uint32(sd.netClass[n])))
	inc := (*scratch)[:0]
	for _, p := range sd.netAdj[n] {
		inc = append(inc, uint64(uint32(sd.devClass[p.dev]))<<1|uint64(p.role))
	}
	slices.Sort(inc)
	for _, v := range inc {
		h = fnvMix(h, v)
	}
	*scratch = inc
	return h
}

// computeSigs fills sigs[i] for each dirty id from the previous
// round's classes.
func computeSigs(sd *mside, devices bool, ids []int32, sigs []uint64) {
	var si32 []int32
	var su64 []uint64
	for i, id := range ids {
		if devices {
			sigs[i] = sd.devSigOf(id, &si32)
		} else {
			sigs[i] = sd.netSigOf(id, &su64)
		}
	}
}

// mover is one node whose signature moved this round.
type mover struct {
	side int8
	id   int32
	sig  uint64
}

// recolor recomputes the dirty nodes' signatures and splits classes
// whose members diverged. Within one old class, the subgroup that can
// claim continuity keeps the id — the members the round did not move,
// else the smallest signature — and every other subgroup gets a fresh
// id in deterministic order. Returns the nodes whose class changed.
func (m *matcher) recolor(devices bool, dirty [2][]int32) [2][]int32 {
	// signatures, per side
	var sigs [2][]uint64
	for si, ids := range dirty {
		sigs[si] = make([]uint64, len(ids))
		computeSigs(m.s[si], devices, ids, sigs[si])
	}

	// gather the movers, grouped by old class
	byClass := map[int32][]mover{}
	var classes []int32
	for si, ids := range dirty {
		sd := m.s[si]
		for i, id := range ids {
			var cls int32
			var stored *uint64
			if devices {
				cls, stored = sd.devClass[id], &sd.devSig[id]
			} else {
				cls, stored = sd.netClass[id], &sd.netSig[id]
			}
			if cls < 0 || sigs[si][i] == *stored {
				continue
			}
			*stored = sigs[si][i]
			if _, ok := byClass[cls]; !ok {
				classes = append(classes, cls)
			}
			byClass[cls] = append(byClass[cls], mover{side: int8(si), id: id, sig: sigs[si][i]})
		}
	}
	slices.Sort(classes)

	var changed [2][]int32
	for _, cls := range classes {
		movers := byClass[cls]
		// distinct signatures, ascending — subgroup order
		sigSet := make([]uint64, 0, len(movers))
		for _, mv := range movers {
			sigSet = append(sigSet, mv.sig)
		}
		sigSet = dedupSortedU64(sigSet)
		remaining := m.count[cls] - int32(len(movers))
		keeper := -1 // index into sigSet that keeps cls
		if remaining == 0 {
			keeper = 0
		}
		if keeper == 0 && len(sigSet) == 1 {
			continue // the whole class moved together: a rename, not a split
		}
		// fresh ids for the non-keeper subgroups, in signature order
		newID := make([]int32, len(sigSet))
		for k := range sigSet {
			if k == keeper {
				newID[k] = cls
				continue
			}
			newID[k] = m.next
			m.next++
			m.count = append(m.count, 0)
		}
		for _, mv := range movers {
			k, _ := slices.BinarySearch(sigSet, mv.sig)
			if newID[k] == cls {
				continue
			}
			sd := m.s[mv.side]
			if devices {
				sd.devClass[mv.id] = newID[k]
			} else {
				sd.netClass[mv.id] = newID[k]
			}
			m.count[cls]--
			m.count[newID[k]]++
			changed[mv.side] = append(changed[mv.side], mv.id)
		}
	}
	return changed
}

func dedupSortedU64(vs []uint64) []uint64 {
	slices.Sort(vs)
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// histograms counts members per class on each side, for nets and
// devices.
func (m *matcher) histograms() (nets, devs [2]map[int32]int32) {
	for si, sd := range m.s {
		nets[si] = map[int32]int32{}
		for n := 0; n < sd.r.nets; n++ {
			if sd.netClass[n] >= 0 {
				nets[si][sd.netClass[n]]++
			}
		}
		devs[si] = map[int32]int32{}
		for _, c := range sd.devClass {
			devs[si][c]++
		}
	}
	return nets, devs
}

// balanced reports whether the two sides' class histograms agree.
func (m *matcher) balanced() bool {
	nets, devs := m.histograms()
	return mapsEqual(nets[0], nets[1]) && mapsEqual(devs[0], devs[1])
}

func mapsEqual(a, b map[int32]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// snapshot captures the matcher's mutable state for individualization
// backtracking.
type snapshot struct {
	netClass, devClass [2][]int32
	netSig, devSig     [2][]uint64
	next               int32
	count              []int32
}

func (m *matcher) save() *snapshot {
	sn := &snapshot{next: m.next, count: slices.Clone(m.count)}
	for si, sd := range m.s {
		sn.netClass[si] = slices.Clone(sd.netClass)
		sn.devClass[si] = slices.Clone(sd.devClass)
		sn.netSig[si] = slices.Clone(sd.netSig)
		sn.devSig[si] = slices.Clone(sd.devSig)
	}
	return sn
}

func (m *matcher) restore(sn *snapshot) {
	m.next = sn.next
	m.count = append(m.count[:0], sn.count...)
	for si, sd := range m.s {
		copy(sd.netClass, sn.netClass[si])
		copy(sd.devClass, sn.devClass[si])
		copy(sd.netSig, sn.netSig[si])
		copy(sd.devSig, sn.devSig[si])
	}
}

// individualize extends a balanced stable partition to an explicit
// net-to-net matching, then verifies the matching is a genuine
// isomorphism. While classes hold several nets, pairs are
// individualized (moved to fresh shared classes) and refinement
// re-runs from their neighborhoods, descending an aggression ladder:
//
//  1. pair EVERY member of every multi class at once — on independent
//     automorphic orbits (replicated cells, interchangeable stubs) any
//     pairing extends, and one wave finishes the whole design;
//  2. if that unbalances, one pair per class;
//  3. if that unbalances too, one class alone, trying each candidate.
//
// Wrong guesses roll back; bounded retries keep the worst case finite.
// The final map is checked outright — every ref device must map onto a
// lay device, every shared label onto its own net — so an accepted
// matching is a proof, not a heuristic: a pairing that slipped
// through balanced-but-wrong fails the verification and reports as
// unmatched rather than clean. Returns the ref-to-lay net map and
// whether a verified matching completed.
func (m *matcher) individualize() (map[int]int, bool) {
	retries := 256
	for {
		// per-side member counts per class; collect member lists only
		// for the (few) classes that are still ambiguous
		perSide := [2][]int32{}
		for si, sd := range m.s {
			perSide[si] = make([]int32, m.next)
			for n := 0; n < sd.r.nets; n++ {
				if c := sd.netClass[n]; c >= 0 {
					perSide[si][c]++
				}
			}
		}
		var multi []int32
		for c := int32(0); c < m.next; c++ {
			if perSide[0][c] > 1 || perSide[1][c] > 1 {
				multi = append(multi, c)
			}
		}
		if len(multi) == 0 {
			// all singletons: read the matching out and verify it
			pairRef := make([]int32, m.next)
			for i := range pairRef {
				pairRef[i] = -1
			}
			netMap := make(map[int]int, m.s[0].r.aliveCount)
			for n := 0; n < m.s[0].r.nets; n++ {
				if c := m.s[0].netClass[n]; c >= 0 {
					pairRef[c] = int32(n)
				}
			}
			for n := 0; n < m.s[1].r.nets; n++ {
				c := m.s[1].netClass[n]
				if c < 0 {
					continue
				}
				if pairRef[c] < 0 {
					return nil, false
				}
				netMap[int(pairRef[c])] = n
			}
			if len(netMap) != m.s[0].r.aliveCount || !m.verifyMap(netMap) {
				return nil, false
			}
			return netMap, true
		}
		isMulti := map[int32]bool{}
		for _, c := range multi {
			isMulti[c] = true
		}
		members := [2]map[int32][]int32{}
		for si, sd := range m.s {
			members[si] = map[int32][]int32{}
			for n := 0; n < sd.r.nets; n++ {
				if c := sd.netClass[n]; c >= 0 && isMulti[c] {
					members[si][c] = append(members[si][c], int32(n))
				}
			}
		}

		// rung 1: pair all members of all multi classes by position
		sn := m.save()
		var devs [2][]int32
		for _, c := range multi {
			rs, ls := members[0][c], members[1][c]
			if len(rs) != len(ls) {
				m.restore(sn)
				return nil, false
			}
			for k := range rs {
				m.pairNets(rs[k], ls[k], &devs)
			}
		}
		m.refineFrom([2][]int32{dedupSorted(devs[0]), dedupSorted(devs[1])}, [2][]int32{})
		if m.balanced() {
			continue
		}
		m.restore(sn)

		// rung 2: one pair per multi class
		sn = m.save()
		devs = [2][]int32{}
		for _, c := range multi {
			m.pairNets(members[0][c][0], members[1][c][0], &devs)
		}
		m.refineFrom([2][]int32{dedupSorted(devs[0]), dedupSorted(devs[1])}, [2][]int32{})
		if m.balanced() {
			continue
		}
		m.restore(sn)

		// rung 3: the lowest multi class alone, trying each candidate
		pick := multi[0]
		refNet := members[0][pick][0]
		ok := false
		for _, layNet := range members[1][pick] {
			sn := m.save()
			devs = [2][]int32{}
			m.pairNets(refNet, layNet, &devs)
			m.refineFrom(devs, [2][]int32{})
			if m.balanced() {
				ok = true
				break
			}
			m.restore(sn)
			if retries--; retries <= 0 {
				return nil, false
			}
		}
		if !ok {
			return nil, false
		}
	}
}

// pairNets individualizes one ref/lay net pair into a fresh shared
// class, collecting their adjacent devices into the frontier.
func (m *matcher) pairNets(refNet, layNet int32, devs *[2][]int32) {
	m.moveNet(0, refNet, m.next)
	m.moveNet(1, layNet, m.next)
	m.next++
	m.count = append(m.count, 2)
	for _, p := range m.s[0].netAdj[refNet] {
		devs[0] = append(devs[0], p.dev)
	}
	for _, p := range m.s[1].netAdj[layNet] {
		devs[1] = append(devs[1], p.dev)
	}
}

// moveNet reassigns one net's class, maintaining the member counts.
func (m *matcher) moveNet(side int, n, cls int32) {
	sd := m.s[side]
	m.count[sd.netClass[n]]--
	sd.netClass[n] = cls
}

// verifyMap checks that a complete net map really is an isomorphism of
// the reduced netlists: the mapped reference device multiset must
// equal the layout device multiset, and every shared label must map to
// its own layout net.
func (m *matcher) verifyMap(netMap map[int]int) bool {
	ref, lay := m.s[0].r, m.s[1].r
	if len(ref.devs) != len(lay.devs) {
		return false
	}
	counts := map[string]int{}
	for _, d := range lay.devs {
		counts[devKey(d)]++
	}
	var gates []int32
	for _, d := range ref.devs {
		a, b := int32(netMap[int(d.a)]), int32(netMap[int(d.b)])
		if b < a {
			a, b = b, a
		}
		gates = gates[:0]
		for _, g := range d.gates {
			gates = append(gates, int32(netMap[int(g)]))
		}
		slices.Sort(gates)
		key := devKey(rdev{kind: d.kind, gates: gates, a: a, b: b, mult: d.mult})
		counts[key]--
		if counts[key] < 0 {
			return false
		}
	}
	for name, rn := range ref.labelNet {
		ln, ok := lay.labelNet[name]
		if !ok {
			continue
		}
		if netMap[rn] != ln {
			return false
		}
	}
	return true
}
