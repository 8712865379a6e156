package lvs

import (
	"strconv"

	"riot/internal/core"
	"riot/internal/extract"
	"riot/internal/flatten"
	"riot/internal/seam"
)

// Hierarchical matching certificates. Riot's whole premise is
// composition of pre-designed cells — the same leaf repeated hundreds
// of times in arrays and padframes — yet a flat comparison re-matches
// every copy's interior from scratch. A certificate captures what one
// distinct leaf contributes (keyed by the same placement signature the
// reference derivation memoizes extractions on), derived once from the
// leaf's reference entry: its device list, its boundary-visible nets,
// the pin count of every interior net and its reduced-interior
// accounting. For a leaf the reference derivation IS the standalone
// extraction, so the cell's own netlist stands on both sides of its
// match and the net map between them is the identity; no one-time
// match runs. At the top level every occurrence of a certified cell
// is then checked cheaply — its extracted devices must align
// one-to-one with the cell's standalone extraction (flatten emits both
// in the same walk order), and its interior nets must be untouched by
// anything outside the occurrence — and treated as pre-collapsed:
//
//   - the occurrence's interior is covered by the certificate and
//     never enters refinement;
//   - its boundary nets carry a FORCED correspondence (the device
//     alignment map phi pins each reference boundary net to the flat
//     layout net its material actually landed on), checked directly
//     as a global bijection instead of being re-derived by partition
//     refinement;
//   - the two label tables (one net per label site, the same sites on
//     both sides) are walked site by site: a label on a covered net is
//     verified against the bijection and consumed, no name formatted;
//   - only what remains — the devices and labels of occurrences that
//     could NOT be certified, with the bijection's pairs seeding their
//     frontier as anchors — goes through the generic reduce/refine/
//     individualize machinery.
//
// Matching cost therefore scales with O(distinct cells + boundary +
// un-certified residual) instead of O(flat devices): a cold 64x64
// array derives its one leaf's certificate once and settles the 4096
// copies by alignment, and an incremental edit re-refines only the
// de-certified region around the edit — the warm start the reference
// memo's certificates provide across editor generations.
//
// Soundness: an occurrence is only certified when its interior is
// provably isolated — every flat net claimed interior carries exactly
// the device pins the standalone cell predicts, no labels, and no
// claim from any other occurrence — so unsanctioned material poking
// deep into a cell (the short LVS exists to catch) de-certifies the
// occurrence and leaves it in the residual. A certified comparison
// that comes back anything but clean is rerun flat, so diagnostics
// always name leaf-level nets and verdicts are identical to
// certificate-free runs by construction; a clean certified verdict is
// backed by the composed net map (bijection + certificate interiors
// + residual matching), which the NetMap reports in leaf-level terms.

// certificate is one distinct leaf's recorded contribution.
type certificate struct {
	sig uint64
	ok  bool // the leaf has devices and boundary nets to align on

	nets     int // the cell's standalone net space
	devs     []Device
	boundary []int32 // boundary-visible local nets, ascending: the pin order
	interior []bool  // per local net: carries pins but is not boundary-visible
	pinCount []int32 // device pins per local net, the isolation yardstick

	// aliveInterior lists the non-boundary local nets that survive the
	// cell's series/parallel reduction: the certificate's contribution
	// to a clean top-level net map (leaf-level ids, substituted back
	// per occurrence).
	aliveInterior []int32
	// redDevices counts the cell's reduced devices, the certificate's
	// contribution to the per-side device accounting.
	redDevices int
}

// CertStats is one comparison's certificate accounting; it is
// deterministic per design (independent of memo warmth), so cached
// and from-scratch runs produce identical Results.
type CertStats struct {
	// Occurrences counts the design's leaf occurrences; Certified how
	// many compared under a certificate; Cells the distinct certified
	// cell signatures among them.
	Occurrences int
	Certified   int
	Cells       int
	// Fallback reports that the certified comparison found a mismatch
	// and the verdict (and every diagnostic) came from the flat rerun.
	Fallback bool
}

// cert returns the leaf's certificate: one map lookup per occurrence,
// and on first sight of the signature a derivation from the leaf's
// reference entry.
func (rf *Reference) cert(oc refOcc) *certificate {
	if ct, ok := rf.certs[oc.sig]; ok {
		rf.stats.CertHits++
		return ct
	}
	rf.stats.CertsBuilt++
	ct := &certificate{sig: oc.sig}
	if e := rf.entry(oc.cell, seam.Reach); e.err == nil {
		ct.nets, ct.devs = e.nets, e.devices
		// boundary-visibility at the BASE contract reach, filtered from
		// the entry's (possibly deeper) retained material: an entry's
		// reach only ever grows with the seams it has seen, and the
		// certificate must not depend on that history — cached and
		// from-scratch runs must certify identically. Deep-overlap
		// occurrences whose deeper material really participates in a
		// seam de-certify through the isolation check instead.
		isB := make([]bool, e.nets)
		for _, n := range e.bind {
			if n >= 0 {
				isB[n] = true
			}
		}
		inner := oc.cell.BBox().Inset(seam.Reach)
		for _, bf := range e.boundary {
			if bf.net >= 0 && !inner.ContainsRect(bf.r) {
				isB[bf.net] = true
			}
		}
		ct.pinCount = make([]int32, e.nets)
		for _, d := range ct.devs {
			ct.pinCount[d.Gate]++
			ct.pinCount[d.A]++
			ct.pinCount[d.B]++
		}
		ct.interior = make([]bool, e.nets)
		for n := 0; n < e.nets; n++ {
			if isB[n] {
				ct.boundary = append(ct.boundary, int32(n))
			} else if ct.pinCount[n] > 0 {
				ct.interior[n] = true
			}
		}
		// a leaf with no devices or no boundary nets has nothing to
		// align on; its occurrences stay in the residual
		ct.ok = len(ct.boundary) > 0 && len(ct.devs) > 0
		// reduced-interior accounting for clean top-level net maps
		rr := reduce(&Netlist{NetCount: e.nets, Devices: e.devices, Sites: e.bind})
		ct.redDevices = len(rr.devs)
		for n := 0; n < e.nets; n++ {
			if rr.alive[n] && !isB[n] {
				ct.aliveInterior = append(ct.aliveInterior, int32(n))
			}
		}
	}
	if rf.certs == nil {
		rf.certs = map[uint64]*certificate{}
	}
	rf.certs[oc.sig] = ct
	return ct
}

// label adds a synthetic label to a residual netlist: kind 'a'
// anchors one bijection pair by its reference net id (deterministic per
// design), kind 's' carries an uncovered label by its site, which
// indexes both sides' tables alike. The NUL prefix keeps both out of
// any real connector namespace, and the name map starts nil, so a check
// with no residual labels builds none.
func (n *Netlist) label(kind byte, id, net int) {
	if n.Labels == nil {
		n.Labels = map[string]int{}
	}
	n.Labels["\x00"+string(rune(kind))+strconv.Itoa(id)] = net
}

// notClean is the sentinel result compareCertified returns when the
// certified comparison itself found the sides inconsistent: the caller
// reruns the flat comparison for diagnostics.
var notClean = &Result{}

// compareCertified runs the certificate-backed comparison of cell's
// reference against the circuit extracted from it. It returns nil when
// the two sides' occurrence structure cannot be aligned, when two of
// the cell's label sites share a name (the tables would compare sites
// a name map shadows), or when nothing certifies (the caller compares
// flat), the notClean sentinel or the residual's own non-clean result
// when a certified check fails (the caller falls back to flat for
// diagnostics), or the composed clean result.
func (rf *Reference) compareCertified(cell *core.Cell, occs []refOcc, ref *Netlist, ckt *extract.Circuit, lo *flatten.Occurrences) (*Result, CertStats) {
	var st CertStats
	st.Occurrences = len(lo.Cells)
	if len(occs) != len(lo.Cells) || len(ref.Sites) != len(ckt.Sites) || !core.LabelsUnique(cell) {
		return nil, st
	}
	for i, oc := range occs {
		if oc.cell != lo.Cells[i] {
			return nil, st
		}
	}
	// layout device spans per occurrence: transistors are emitted
	// one-to-one, in walk order, occurrence by occurrence
	layLo := lo.DevLo
	if int(layLo[len(occs)]) != len(ckt.Transistors) {
		return nil, st
	}

	// certificates and reference spans; both sides must agree span for
	// span with the standalone cells
	certs := make([]*certificate, len(occs))
	refLo := make([]int32, len(occs)+1)
	total := 0
	for o, oc := range occs {
		ct := rf.cert(oc)
		certs[o] = ct
		refLo[o] = int32(total)
		total += len(ct.devs)
		if int(layLo[o+1]-layLo[o]) != len(ct.devs) || len(oc.nets) != ct.nets {
			return nil, st
		}
	}
	refLo[len(occs)] = int32(total)
	if total != len(ref.Devices) {
		return nil, st
	}

	// per-occurrence device alignment: phi maps the cell's standalone
	// nets onto flat layout nets through the pin lists, and must be
	// consistent (one flat net per local net) and injective (distinct
	// local nets stay distinct — a deep unsanctioned short inside the
	// occurrence breaks exactly this)
	phis := make([][]int32, len(occs))
	cand := make([]bool, len(occs))
	inv := map[int32]int32{}
	for o := range occs {
		ct := certs[o]
		if !ct.ok {
			continue
		}
		phi := make([]int32, ct.nets)
		for i := range phi {
			phi[i] = -1
		}
		clear(inv)
		good := true
		bind := func(local int, flat int) bool {
			switch f := int32(flat); {
			case phi[local] < 0:
				if prev, dup := inv[f]; dup && prev != int32(local) {
					return false // two local nets on one flat net
				}
				phi[local] = f
				inv[f] = int32(local)
			case phi[local] != int32(flat):
				return false // one local net on two flat nets
			}
			return true
		}
		for j := 0; j < len(ct.devs) && good; j++ {
			std, tr := ct.devs[j], ckt.Transistors[int(layLo[o])+j]
			good = std.Kind == tr.Kind &&
				bind(std.Gate, tr.Gate) && bind(std.A, tr.A) && bind(std.B, tr.B)
		}
		if !good {
			continue
		}
		// every boundary pin must have landed (a pin-less boundary net
		// has no device evidence to align on; such cells stay flat)
		for _, b := range ct.boundary {
			if phi[b] < 0 {
				good = false
				break
			}
		}
		if good {
			phis[o], cand[o] = phi, true
		}
	}

	// isolation: a flat net claimed interior must carry exactly the
	// pins its occurrence predicts (so nothing outside touches it), no
	// label, and no second claimant
	flatPins := make([]int32, ckt.NetCount)
	for _, tr := range ckt.Transistors {
		flatPins[tr.Gate]++
		flatPins[tr.A]++
		flatPins[tr.B]++
	}
	flatLabeled := make([]bool, ckt.NetCount)
	for _, n := range ckt.Sites {
		if n >= 0 {
			flatLabeled[n] = true
		}
	}
	claimant := make([]int32, ckt.NetCount)
	for i := range claimant {
		claimant[i] = -1
	}
	for o := range occs {
		if !cand[o] {
			continue
		}
		ct, phi := certs[o], phis[o]
		for n := 0; n < ct.nets; n++ {
			if !ct.interior[n] {
				continue
			}
			f := phi[n]
			if flatLabeled[f] || flatPins[f] != ct.pinCount[n] || claimant[f] >= 0 {
				cand[o] = false
				if claimant[f] >= 0 {
					cand[claimant[f]] = false // both claimants stay flat
				}
				break
			}
			claimant[f] = int32(o)
		}
	}
	// release claims of occurrences de-certified after claiming, then
	// reject claims that collide with a surviving occurrence's boundary
	// image (its devices would reference a net the claimant abandons)
	for f, o := range claimant {
		if o >= 0 && !cand[o] {
			claimant[f] = -1
		}
	}
	for o := range occs {
		if !cand[o] {
			continue
		}
		for _, b := range certs[o].boundary {
			if cl := claimant[phis[o][b]]; cl >= 0 && cl != int32(o) {
				cand[o] = false
				cand[cl] = false
			}
		}
	}
	for f, o := range claimant {
		if o >= 0 && !cand[o] {
			claimant[f] = -1
		}
	}

	seenCell := map[uint64]bool{}
	for o := range occs {
		if cand[o] {
			st.Certified++
			if !seenCell[certs[o].sig] {
				seenCell[certs[o].sig] = true
				st.Cells++
			}
		}
	}
	if st.Certified == 0 {
		return nil, st
	}

	// the forced boundary bijection: every certified occurrence pins
	// its reference boundary nets to the flat nets its material
	// actually landed on; the relation must be one-to-one both ways
	// (two reference nets collapsing onto one layout net is a short,
	// the reverse an open — either way the flat rerun diagnoses it)
	bij := make([]int32, ref.NetCount)
	invB := make([]int32, ckt.NetCount)
	for i := range bij {
		bij[i] = -1
	}
	for i := range invB {
		invB[i] = -1
	}
	for o := range occs {
		if !cand[o] {
			continue
		}
		refNets, phi := occs[o].nets, phis[o]
		for _, b := range certs[o].boundary {
			r, l := refNets[b], phi[b]
			if (bij[r] >= 0 && bij[r] != l) || (invB[l] >= 0 && invB[l] != r) {
				return notClean, st
			}
			bij[r], invB[l] = l, r
		}
	}

	// labels: one comparison per site against the bijection; labels on
	// un-covered nets pass through to the residual (keeping their
	// aliveness semantics), keyed by site. Anything irregular on a
	// covered net — a crossed pairing, or a label one side resolved and
	// the other did not (flat comparison treats one-sided labels as
	// aliveness marks, which can change that side's reduction) — hands
	// the verdict to the flat rerun rather than risk a clean the flat
	// path would not give.
	refR := &Netlist{NetCount: ref.NetCount}
	layR := &Netlist{NetCount: ckt.NetCount}
	for s, r := range ref.Sites {
		switch l := ckt.Sites[s]; {
		case r < 0 && l < 0:
		case l < 0:
			if bij[r] >= 0 {
				return notClean, st // one-sided label on a covered net
			}
			refR.label('s', s, int(r))
		case r < 0:
			if invB[l] >= 0 {
				return notClean, st // one-sided label on a covered net
			}
			layR.label('s', s, int(l))
		case bij[r] >= 0 && invB[l] >= 0:
			if bij[r] != l {
				return notClean, st
			}
		case bij[r] < 0 && invB[l] < 0:
			refR.label('s', s, int(r))
			layR.label('s', s, int(l))
		default:
			return notClean, st // covered on one side only: crossed wiring
		}
	}

	// the residual: devices and labels of un-certified occurrences,
	// with anchor labels on every bijection net the residual touches
	// (refinement warm-starts from them and the final isomorphism
	// verification enforces them)
	for o := range occs {
		if cand[o] {
			continue
		}
		refR.Devices = append(refR.Devices, ref.Devices[refLo[o]:refLo[o+1]]...)
		for j := layLo[o]; j < layLo[o+1]; j++ {
			tr := ckt.Transistors[j]
			layR.Devices = append(layR.Devices, Device{Kind: tr.Kind, Gate: tr.Gate, A: tr.A, B: tr.B})
		}
	}
	anchored := map[int32]bool{}
	anchor := func(r int32) {
		if !anchored[r] {
			anchored[r] = true
			refR.label('a', int(r), int(r))
			layR.label('a', int(r), int(bij[r]))
		}
	}
	for _, d := range refR.Devices {
		for _, n := range [3]int{d.Gate, d.A, d.B} {
			if bij[n] >= 0 {
				anchor(int32(n))
			}
		}
	}
	for _, d := range layR.Devices {
		for _, n := range [3]int{d.Gate, d.A, d.B} {
			if r := invB[n]; r >= 0 {
				anchor(r)
			}
		}
	}

	res := Compare(refR, layR)
	if !res.Clean {
		return res, st
	}

	// compose the net map: residual matching, then the bijection pairs
	// and every certified occurrence's reduced interior (the
	// certificate substituted back, so the map names leaf-level nets)
	netMap := res.NetMap
	refNetsN, layNetsN := res.RefNets, res.LayNets
	for r, l := range bij {
		if l < 0 {
			continue
		}
		if _, seen := netMap[r]; !seen {
			netMap[r] = int(l)
			refNetsN++
			layNetsN++
		}
	}
	refDevs, layDevs := res.RefDevices, res.LayDevices
	for o := range occs {
		if !cand[o] {
			continue
		}
		ct, refNets, phi := certs[o], occs[o].nets, phis[o]
		for _, n := range ct.aliveInterior {
			netMap[int(refNets[n])] = int(phi[n])
			refNetsN++
			layNetsN++
		}
		refDevs += ct.redDevices
		layDevs += ct.redDevices
	}
	return &Result{
		Clean:   true,
		RefNets: refNetsN, LayNets: layNetsN,
		RefDevices: refDevs, LayDevices: layDevs,
		NetMap: netMap,
	}, st
}

// compareHier is the certificate-backed comparison entry point for
// cell: any outcome other than clean names both label tables and reruns
// the flat comparison, so diagnostics name leaf-level nets and verdicts
// are identical to certificate-free runs.
func compareHier(rf *Reference, cell *core.Cell, occs []refOcc, ref *Netlist, ckt *extract.Circuit, lo *flatten.Occurrences) *Result {
	res, st := rf.compareCertified(cell, occs, ref, ckt, lo)
	if res == nil || !res.Clean {
		st.Fallback = res != nil
		named, lay := *ref, FromCircuit(ckt, cell)
		named.Labels = core.LabelMap(cell, ref.Sites)
		rf.stats.NamesFormatted += len(named.Labels) + len(lay.Labels)
		res = Compare(&named, lay)
	}
	res.Cert = st
	return res
}
