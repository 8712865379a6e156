package lvs

import (
	"slices"
	"sync/atomic"

	"riot/internal/core"
	"riot/internal/extract"
	"riot/internal/geom"
	"riot/internal/hier"
)

// arrayRef is the reference side of a template-witness check: the
// arrayed leaf's entry and the stitch's pairing offsets (over port
// boxes), each with its reference template.
type arrayRef struct {
	leaf *refEntry
	offs []core.Offset
	tmpl [][][2]int32
}

// arrayWitness settles the check of a fast-path leaf ARRAY by template
// witness, from its leaf entry, one reference template per offset and
// the lattice the verifier's circuit was composed over, under the
// "reference" and "match" spans a stitched check records. It returns
// nil, for the stitch and the walk to decide, when the check is not
// eligible or a check fails; the package doc gives both and the
// soundness argument.
func (inc *Incremental) arrayWitness(c *core.Cell, declared []core.Connection, lat *hier.Lattice, ckt *extract.Circuit) *Result {
	if len(declared) > 0 || lat == nil || len(c.Instances) != 1 || lat.Inst != c.Instances[0] ||
		len(core.LabelHead(c)) > 0 || len(lat.Cert.X.Joins) > 0 {
		return nil
	}
	rsp := inc.Trace.Begin("reference")
	ar := inc.Ref.arrayTemplates(lat.Inst)
	rsp.End()
	if ar == nil {
		return nil
	}
	msp := inc.Trace.Begin("match")
	defer msp.End()
	return inc.Ref.templateWitness(ar, lat, ckt)
}

// arrayTemplates derives the leaf entry of in and one reference
// template per stitch pairing offset. nil: the leaf failed to derive,
// or the Reference is busy (the stitch reports either).
func (rf *Reference) arrayTemplates(in *core.Instance) *arrayRef {
	if !atomic.CompareAndSwapInt32(&rf.busy, 0, 1) {
		return nil
	}
	defer atomic.StoreInt32(&rf.busy, 0)
	e := rf.entry(in.Cell)
	if e.err != nil {
		return nil
	}
	ar := &arrayRef{leaf: e, offs: in.PairOffsets(portBox(in.Cell), 0)}
	for _, off := range ar.offs {
		d := in.CopyTransform(off.DI, off.DJ).D.Sub(in.Tr.D)
		ar.tmpl = append(ar.tmpl, buildTemplate(tmplKey{u: e, v: e, ou: in.Tr.O, ov: in.Tr.O, dx: d.X, dy: d.Y}))
		rf.stats.TemplatesBuilt++
	}
	return ar
}

// templateWitness runs the package doc's three checks and, when they
// hold, returns the Result the walk-order witness would: clean, every
// composed net bound and every device walked on both sides. nil: a
// check failed.
func (rf *Reference) templateWitness(ar *arrayRef, lat *hier.Lattice, ckt *extract.Circuit) *Result {
	leaf, x := ar.leaf, lat.Cert.X
	n, copies := x.NetCount, lat.Inst.Nx*lat.Inst.Ny
	if leaf.nets != n || len(leaf.devices) != len(x.Devices) || len(leaf.bind) != len(lat.PortNet) {
		return nil
	}
	// 1. the leaf binding β, device by device, onto every net
	beta, inv := make([]int32, n), make([]int32, n)
	for i := range beta {
		beta[i], inv[i] = -1, -1
	}
	bound := 0
	bind := func(r int, l int32) bool {
		if beta[r] < 0 && inv[l] < 0 {
			beta[r], inv[l] = l, int32(r)
			bound++
		}
		return beta[r] == l
	}
	for k, d := range leaf.devices {
		t := x.Devices[k]
		if d.Kind != t.Kind || !bind(d.Gate, t.GateNet) || !bind(d.A, t.ANet) || !bind(d.B, t.BNet) {
			return nil
		}
	}
	if bound != n {
		return nil
	}
	// 2. every port bound on both sides, onto β-twins
	for k, r := range leaf.bind {
		if r < 0 || beta[r] != lat.PortNet[k] {
			return nil
		}
	}
	// 3. at every offset of either side (no unions where a side lacks
	// it), one partition of two copies' nets on both
	for _, off := range append(slices.Clone(ar.offs), lat.Offsets...) {
		var ref, lay [][2]int32
		if k := slices.Index(ar.offs, off); k >= 0 {
			ref = ar.tmpl[k]
		}
		if k := slices.Index(lat.Offsets, off); k >= 0 {
			lay = lat.Unions[k]
		}
		if !samePartition(n, beta, ref, lay) {
			return nil
		}
	}
	rf.stats.TemplateCertified++
	nd := len(ckt.Transistors)
	return &Result{Clean: true, RefNets: ckt.NetCount, LayNets: ckt.NetCount, RefDevices: nd, LayDevices: nd,
		Cert: CertStats{Occurrences: copies, Certified: copies}}
}

// samePartition reports whether the reference unions, mapped through
// beta, and the layout unions generate one partition of two copies' 2n
// nets (the second copy's net r is node n+r). Dense numbers classes
// canonically, so equal partitions give equal numberings.
func samePartition(n int, beta []int32, ref, lay [][2]int32) bool {
	ru, lu := geom.NewUnionFind(2*n), geom.NewUnionFind(2*n)
	for _, p := range ref {
		ru.Union(int(beta[p[0]]), n+int(beta[p[1]]))
	}
	for _, p := range lay {
		lu.Union(int(p[0]), n+int(p[1]))
	}
	rd, _ := ru.Dense()
	ld, _ := lu.Dense()
	return slices.Equal(rd, ld)
}
