package lvs

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies a mismatch.
type Kind string

// The mismatch kinds, in reporting order.
const (
	// KindShort: two nets the reference declares distinct are one net
	// in the layout (unsanctioned material contact).
	KindShort Kind = "short"
	// KindOpen: one declared net is several nets in the layout (a
	// connection the composition declares is not realized).
	KindOpen Kind = "open"
	// KindSwapped: two connector pairs are crossed — each side joins
	// the four labels into two nets, but pairs them differently.
	KindSwapped Kind = "swapped"
	// KindDevice: a device equivalence class has different member
	// counts on the two sides (a missing, extra or rewired device).
	KindDevice Kind = "device"
	// KindNet: a net equivalence class has different member counts on
	// the two sides.
	KindNet Kind = "net"
	// KindAmbiguous: the partitions balance but no explicit matching
	// was found within budget — structurally suspect, never silent.
	KindAmbiguous Kind = "ambiguous"
)

// kindRank orders mismatches for stable reports.
var kindRank = map[Kind]int{
	KindShort: 0, KindOpen: 1, KindSwapped: 2,
	KindDevice: 3, KindNet: 4, KindAmbiguous: 5,
}

// Mismatch is one structured diagnostic. RefNet and LayNet are
// exemplar nets in the respective netlists (-1 when not applicable),
// Labels the connector labels involved, Devices renderings of the
// devices on the offending nets, and Hint a one-line explanation.
type Mismatch struct {
	Kind    Kind
	RefNet  int
	LayNet  int
	Labels  []string
	Devices []string
	Hint    string
}

// String renders the mismatch for reports.
func (mm Mismatch) String() string {
	s := string(mm.Kind)
	if len(mm.Labels) > 0 {
		s += " [" + strings.Join(mm.Labels, " ") + "]"
	}
	if mm.Hint != "" {
		s += ": " + mm.Hint
	}
	return s
}

// Result is one comparison's outcome. Clean means the netlists were
// proven isomorphic: by the walk-order witness, or on the reduced
// netlists with an explicit net matching.
type Result struct {
	Clean      bool
	Mismatches []Mismatch
	// RefNets/LayNets count the electrically meaningful (pruned,
	// reduced) nets per side; RefDevices/LayDevices the reduced
	// devices. A result the witness settled counts unreduced: the nets
	// it bound and the devices it walked, the same on both sides.
	RefNets, LayNets       int
	RefDevices, LayDevices int
	// NetMap maps reference nets to layout nets when a flat comparison
	// is Clean (reduced net id spaces; interior series nets are
	// absent). A result the witness settled carries none.
	NetMap map[int]int
	// Cert is the witness accounting of an Incremental check (zero on a
	// plain flat comparison).
	Cert CertStats
}

// Compare matches a reference netlist against a layout netlist:
// series/parallel reduction, label-anchor analysis, shared partition
// refinement, and — when the partitions balance — an explicit
// matching. Mismatches come back most-specific first (shorts, opens,
// swaps before bare class imbalances) in a deterministic order.
func Compare(refN, layN *Netlist) *Result {
	ref, lay := reduce(refN), reduce(layN)
	res := &Result{
		RefNets: ref.aliveCount, LayNets: lay.aliveCount,
		RefDevices: len(ref.devs), LayDevices: len(lay.devs),
	}

	anchors, seedCount, anchorMM := anchorAnalysis(ref, lay)
	res.Mismatches = append(res.Mismatches, anchorMM...)

	m := newMatcher(ref, lay, anchors, seedCount)
	m.refineAll()
	if len(anchorMM) == 0 {
		// class imbalances are only reported when the anchors are
		// consistent: a broken anchor skews every seeded class around
		// it, and the histogram echoes would bury the actual diagnosis
		res.Mismatches = append(res.Mismatches, m.classMismatches(ref, lay)...)
	}

	if len(res.Mismatches) == 0 {
		netMap, ok := m.individualize()
		if ok {
			res.NetMap = netMap
			res.Clean = true
		} else {
			res.Mismatches = append(res.Mismatches, Mismatch{
				Kind: KindAmbiguous, RefNet: -1, LayNet: -1,
				Hint: "partitions balance but no explicit net matching was found within budget",
			})
		}
	}
	sort.SliceStable(res.Mismatches, func(i, j int) bool {
		return kindRank[res.Mismatches[i].Kind] < kindRank[res.Mismatches[j].Kind]
	})
	return res
}

// anchorAnalysis clusters the labels both sides share by the nets they
// land on. A cluster touching one ref net and one lay net is a
// consistent anchor and seeds refinement; anything else is already a
// diagnosis — a declared net split across layout nets (open), several
// declared nets merged into one layout net (short), or two crossed
// pairs (swapped).
func anchorAnalysis(ref, lay *rnetlist) (anchors [2][]int32, seedCount int32, out []Mismatch) {
	// union-find over cluster members: ref nets and lay nets, indexed
	// densely in first-seen order (map iteration order does not matter:
	// clusters are sets, and every emitted order below keys on net ids)
	type node struct {
		side int8
		net  int32
	}
	idx := map[node]int{}
	var nodes []node
	parent := []int{}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	add := func(nd node) int {
		if i, ok := idx[nd]; ok {
			return i
		}
		i := len(nodes)
		idx[nd] = i
		nodes = append(nodes, nd)
		parent = append(parent, i)
		return i
	}
	shared := 0
	for name, rn := range ref.labelNet {
		ln, ok := lay.labelNet[name]
		if !ok {
			continue
		}
		shared++
		ri := add(node{0, int32(rn)})
		li := add(node{1, int32(ln)})
		pr, pl := find(ri), find(li)
		if pr != pl {
			parent[pr] = pl
		}
	}
	if shared == 0 {
		return anchors, 0, nil
	}

	// collect clusters
	type cluster struct {
		refs, lays []int32
		labels     []string
	}
	clusters := map[int]*cluster{}
	for i, nd := range nodes {
		root := find(i)
		cl := clusters[root]
		if cl == nil {
			cl = &cluster{}
			clusters[root] = cl
		}
		if nd.side == 0 {
			cl.refs = append(cl.refs, nd.net)
		} else {
			cl.lays = append(cl.lays, nd.net)
		}
	}
	// cluster labels are only reported for inconsistent clusters; skip
	// the collection pass entirely when every cluster is 1:1 (the clean
	// path, where label walking would be pure overhead)
	anyBad := false
	for _, cl := range clusters {
		if len(cl.refs) != 1 || len(cl.lays) != 1 {
			anyBad = true
			break
		}
	}
	if anyBad {
		for name, rn := range ref.labelNet {
			if _, ok := lay.labelNet[name]; ok {
				cl := clusters[find(idx[node{0, int32(rn)}])]
				cl.labels = append(cl.labels, name)
			}
		}
	}
	roots := make([]int, 0, len(clusters))
	for r := range clusters {
		sort.Slice(clusters[r].refs, func(i, j int) bool { return clusters[r].refs[i] < clusters[r].refs[j] })
		sort.Slice(clusters[r].lays, func(i, j int) bool { return clusters[r].lays[i] < clusters[r].lays[j] })
		roots = append(roots, r)
	}
	// deterministic cluster order: by smallest reference net (net ids
	// are deterministic on both sides; label sorting is deferred to the
	// mismatch paths, which are off the hot path)
	sort.Slice(roots, func(i, j int) bool {
		return clusters[roots[i]].refs[0] < clusters[roots[j]].refs[0]
	})

	anchors[0] = make([]int32, ref.nets)
	anchors[1] = make([]int32, lay.nets)
	for _, root := range roots {
		cl := clusters[root]
		if len(cl.refs) != 1 || len(cl.lays) != 1 {
			sort.Strings(cl.labels)
		}
		switch {
		case len(cl.refs) == 1 && len(cl.lays) == 1:
			seedCount++
			anchors[0][cl.refs[0]] = seedCount
			anchors[1][cl.lays[0]] = seedCount
		case len(cl.refs) == 2 && len(cl.lays) == 2:
			out = append(out, Mismatch{
				Kind: KindSwapped, RefNet: int(minI32(cl.refs)), LayNet: int(minI32(cl.lays)),
				Labels:  cl.labels,
				Devices: describeNets(ref, cl.refs),
				Hint: fmt.Sprintf("connector pairs crossed: the declared pairing of %s differs from the layout's",
					strings.Join(cl.labels, ", ")),
			})
		case len(cl.refs) == 1 && len(cl.lays) > 1:
			out = append(out, Mismatch{
				Kind: KindOpen, RefNet: int(cl.refs[0]), LayNet: int(minI32(cl.lays)),
				Labels:  cl.labels,
				Devices: describeNets(ref, cl.refs),
				Hint: fmt.Sprintf("declared net carrying %s is %d separate nets in the layout",
					strings.Join(cl.labels, ", "), len(cl.lays)),
			})
		case len(cl.refs) > 1 && len(cl.lays) == 1:
			out = append(out, Mismatch{
				Kind: KindShort, RefNet: int(minI32(cl.refs)), LayNet: int(cl.lays[0]),
				Labels:  cl.labels,
				Devices: describeNets(ref, cl.refs),
				Hint: fmt.Sprintf("%d declared nets (%s) are one net in the layout",
					len(cl.refs), strings.Join(cl.labels, ", ")),
			})
		default:
			out = append(out, Mismatch{
				Kind: KindShort, RefNet: int(minI32(cl.refs)), LayNet: int(minI32(cl.lays)),
				Labels:  cl.labels,
				Devices: describeNets(ref, cl.refs),
				Hint: fmt.Sprintf("%d declared nets tangle with %d layout nets across %s",
					len(cl.refs), len(cl.lays), strings.Join(cl.labels, ", ")),
			})
		}
	}
	return anchors, seedCount, out
}

func minI32(vs []int32) int32 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// classMismatches reports every refinement class whose member counts
// differ between the sides, with exemplars and label hints.
func (m *matcher) classMismatches(ref, lay *rnetlist) []Mismatch {
	nets, devs := m.histograms()
	var out []Mismatch

	// device classes first: a rewired transistor is the sharper report
	for _, c := range unionKeys(devs[0], devs[1]) {
		if devs[0][c] == devs[1][c] {
			continue
		}
		mm := Mismatch{Kind: KindDevice, RefNet: -1, LayNet: -1}
		sideName, r := "reference", ref
		di := exemplarDev(m.s[0], c)
		if di < 0 {
			sideName, r = "layout", lay
			di = exemplarDev(m.s[1], c)
		}
		if di >= 0 {
			d := r.devs[di]
			mm.Devices = []string{describeDev(r, d)}
			mm.Labels = nearLabels(r, d)
		}
		mm.Hint = fmt.Sprintf("device class %d has %d reference / %d layout members (%s exemplar shown)",
			c, devs[0][c], devs[1][c], sideName)
		out = append(out, mm)
	}

	netClasses := unionKeys(nets[0], nets[1])
	for _, c := range netClasses {
		if nets[0][c] == nets[1][c] {
			continue
		}
		mm := Mismatch{Kind: KindNet, RefNet: -1, LayNet: -1}
		if n := exemplarNet(m.s[0], c); n >= 0 {
			mm.RefNet = int(n)
			mm.Labels = append(mm.Labels, ref.labelsOf(n)...)
			mm.Devices = describeNets(ref, []int32{n})
		}
		if n := exemplarNet(m.s[1], c); n >= 0 {
			mm.LayNet = int(n)
			if len(mm.Labels) == 0 {
				mm.Labels = append(mm.Labels, lay.labelsOf(n)...)
			}
			if len(mm.Devices) == 0 {
				mm.Devices = describeNets(lay, []int32{n})
			}
		}
		sort.Strings(mm.Labels)
		if len(mm.Labels) > 6 {
			mm.Labels = mm.Labels[:6]
		}
		mm.Hint = fmt.Sprintf("net class %d has %d reference / %d layout members", c, nets[0][c], nets[1][c])
		out = append(out, mm)
	}
	return out
}

func unionKeys(a, b map[int32]int32) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for k := range a {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for k := range b {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// exemplarNet returns the lowest net of a class on one side, -1 if the
// class is empty there.
func exemplarNet(sd *mside, c int32) int32 {
	for n := 0; n < sd.r.nets; n++ {
		if sd.netClass[n] == c {
			return int32(n)
		}
	}
	return -1
}

// exemplarDev returns the lowest device of a class on one side.
func exemplarDev(sd *mside, c int32) int {
	for i, dc := range sd.devClass {
		if dc == c {
			return i
		}
	}
	return -1
}

// netName renders a net for diagnostics: its smallest label, else a
// numeric placeholder (per-net label lists are unordered).
func netName(r *rnetlist, n int32) string {
	names := r.labelsOf(n)
	if len(names) == 0 {
		return fmt.Sprintf("n%d", n)
	}
	best := names[0]
	for _, s := range names[1:] {
		if s < best {
			best = s
		}
	}
	return best
}

// describeDev renders one reduced device.
func describeDev(r *rnetlist, d rdev) string {
	gs := make([]string, len(d.gates))
	for i, g := range d.gates {
		gs[i] = netName(r, g)
	}
	s := fmt.Sprintf("%s[g %s; c %s,%s]", d.kind, strings.Join(gs, ","), netName(r, d.a), netName(r, d.b))
	if d.mult > 1 {
		s += fmt.Sprintf("x%d", d.mult)
	}
	return s
}

// describeNets renders the devices attached to the given nets (up to a
// handful, deterministic order).
func describeNets(r *rnetlist, nets []int32) []string {
	want := map[int32]bool{}
	for _, n := range nets {
		want[n] = true
	}
	var out []string
	for _, d := range r.devs {
		hit := want[d.a] || want[d.b]
		for _, g := range d.gates {
			hit = hit || want[g]
		}
		if hit {
			out = append(out, describeDev(r, d))
			if len(out) == 6 {
				break
			}
		}
	}
	return out
}

// nearLabels collects labels on a device's nets.
func nearLabels(r *rnetlist, d rdev) []string {
	var out []string
	add := func(n int32) {
		out = append(out, r.labelsOf(n)...)
	}
	add(d.a)
	add(d.b)
	for _, g := range d.gates {
		add(g)
	}
	sort.Strings(out)
	if len(out) > 6 {
		out = out[:6]
	}
	return out
}
