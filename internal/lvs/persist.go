package lvs

import (
	"fmt"
	"sort"

	"riot/internal/castore"
	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/rules"
	"riot/internal/sticks"
	"riot/internal/verify"
)

// On-disk persistence of the two LVS memos that survive restarts
// usefully: leaf reference entries (a leaf's standalone extraction —
// netlist, ports, boundary material) and sub-cell certificates (the
// one-time reference/extracted match per distinct cell). Both are
// keyed by castore content signatures, so a fresh process recognizes
// yesterday's cells; composition stitches are NOT persisted — they are
// cheap placement-dependent assembly over the leaf entries.
//
// Payload decoders never trust what they read: every net index is
// checked against the entry's own net space and any inconsistency
// discards the entry (castore.Store.Discard) and falls back to a cold
// recompute, keeping verdicts byte-identical to cache-free runs.

const (
	nsCert = "lvscert"
	nsRef  = "lvsref"
)

// lvsFingerprint is the payload schema identity for one namespace: the
// encoding version plus the process constants the payloads depend on.
func lvsFingerprint(kind string) uint64 {
	return castore.Fingerprint(
		kind, "enc-v1",
		fmt.Sprintf("lambda=%d seam=%d", rules.Lambda, seamReach),
	)
}

// AttachDisk connects the reference memo to a content-addressed store
// (on-disk, a server's shared in-memory tier, or both): leaf entries
// load by content signature before extracting and store after. A nil
// store detaches.
func (rf *Reference) AttachDisk(st castore.Blob, sg *castore.Signer) {
	rf.disk, rf.signer = st, sg
}

// AttachDisk connects the certificate store to a persistent store:
// the one-time sub-cell match loads by content signature before being
// performed and stores after. A nil store detaches.
func (cs *CertStore) AttachDisk(st castore.Blob, sg *castore.Signer) {
	cs.disk, cs.signer = st, sg
}

// AttachDisk connects both of the session's LVS memos to a persistent
// store and the verifier's hierarchical engine alongside (the three
// caches share one content-signature space, so one attach call wires a
// whole verification session).
func (inc *Incremental) AttachDisk(st castore.Blob, sg *castore.Signer, v *verify.Verifier) {
	inc.Ref.AttachDisk(st, sg)
	inc.Certs.AttachDisk(st, sg)
	if v != nil {
		v.AttachDisk(st, sg)
	}
}

// diskLoadLeaf fetches and validates a leaf entry. An entry stored
// with a shallower boundary reach than the caller needs reports a miss
// (the recompute overwrites it with the deeper retention).
func (rf *Reference) diskLoadLeaf(c *core.Cell, minReach int) *refEntry {
	if rf.disk == nil || rf.signer == nil {
		return nil
	}
	key, err := rf.signer.Cell(c)
	if err != nil {
		return nil
	}
	payload, ok := rf.disk.Get(nsRef, key, lvsFingerprint("lvs-ref"))
	if !ok {
		return nil
	}
	e, err := decodeLeafEntry(payload)
	if err != nil {
		rf.disk.Discard(nsRef, key, err.Error())
		return nil
	}
	if e.reach < minReach {
		return nil
	}
	// identity occurrence map and the process-local signature, exactly
	// as leafEntry builds them
	ident := make([]int32, e.nets)
	for n := range ident {
		ident[n] = int32(n)
	}
	e.occs = []refOcc{{cell: c, sig: rf.sigOf(c), nets: ident}}
	return e
}

// diskStoreLeaf persists a freshly derived leaf entry (best-effort).
func (rf *Reference) diskStoreLeaf(c *core.Cell, e *refEntry) {
	if rf.disk == nil || rf.signer == nil || e.err != nil {
		return
	}
	key, err := rf.signer.Cell(c)
	if err != nil {
		return
	}
	rf.disk.Put(nsRef, key, lvsFingerprint("lvs-ref"), encodeLeafEntry(e))
}

func encodeLeafEntry(e *refEntry) []byte {
	var enc castore.Enc
	enc.Int(e.reach)
	enc.Int(e.nets)
	encodeDevices(&enc, e.devices)
	enc.Int(len(e.ports))
	for _, p := range e.ports {
		enc.Str(p.name)
		enc.Int(p.at.X)
		enc.Int(p.at.Y)
		enc.Str(string(p.layer))
		enc.U8(uint8(p.side))
		enc.Int(int(p.net))
	}
	enc.Int(len(e.boundary))
	for _, bf := range e.boundary {
		enc.Str(string(bf.layer))
		encodeRect(&enc, bf.r)
		encodeRect(&enc, bf.leafBox)
		enc.Int(int(bf.net))
	}
	encodeLabels(&enc, e.labels)
	return enc.Bytes()
}

func decodeLeafEntry(payload []byte) (*refEntry, error) {
	d := castore.NewDec(payload)
	e := &refEntry{reach: d.Int(), nets: d.Int()}
	var err error
	if e.devices, err = decodeDevices(d, e.nets); err != nil {
		return nil, err
	}
	nPorts := d.Len(8)
	for i := 0; i < nPorts; i++ {
		p := port{name: d.Str()}
		p.at = geom.Pt(d.Int(), d.Int())
		p.layer = geom.Layer(d.Str())
		p.side = geom.Side(d.U8())
		p.net = int32(d.Int())
		if d.Err() == nil && (p.net < -1 || int(p.net) >= e.nets) {
			return nil, fmt.Errorf("castore: decode: port net %d out of %d", p.net, e.nets)
		}
		e.ports = append(e.ports, p)
	}
	nB := d.Len(8)
	for i := 0; i < nB; i++ {
		bf := bfrag{layer: geom.Layer(d.Str())}
		bf.r = decodeRect(d)
		bf.leafBox = decodeRect(d)
		bf.net = int32(d.Int())
		if d.Err() == nil && (bf.net < 0 || int(bf.net) >= e.nets) {
			return nil, fmt.Errorf("castore: decode: boundary net %d out of %d", bf.net, e.nets)
		}
		e.boundary = append(e.boundary, bf)
	}
	if e.labels, err = decodeLabels(d, e.nets); err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	if e.reach < 0 || e.nets < 0 {
		return nil, fmt.Errorf("castore: decode: negative reach or net count")
	}
	return e, nil
}

// diskLoad fetches and validates the cell's certificate.
func (cs *CertStore) diskLoad(oc refOcc) *certificate {
	if cs.disk == nil || cs.signer == nil {
		return nil
	}
	key, err := cs.signer.Cell(oc.cell)
	if err != nil {
		return nil
	}
	payload, ok := cs.disk.Get(nsCert, key, lvsFingerprint("lvs-cert"))
	if !ok {
		return nil
	}
	ct, err := decodeCertificate(payload)
	if err != nil {
		cs.disk.Discard(nsCert, key, err.Error())
		return nil
	}
	ct.sig = oc.sig
	return ct
}

// diskStore persists a freshly matched certificate (best-effort).
func (cs *CertStore) diskStore(c *core.Cell, ct *certificate) {
	if cs.disk == nil || cs.signer == nil {
		return
	}
	key, err := cs.signer.Cell(c)
	if err != nil {
		return
	}
	cs.disk.Put(nsCert, key, lvsFingerprint("lvs-cert"), encodeCertificate(ct))
}

func encodeCertificate(ct *certificate) []byte {
	var enc castore.Enc
	enc.Bool(ct.ok)
	enc.Int(ct.nets)
	encodeDevices(&enc, ct.devs)
	enc.Int(len(ct.boundary))
	for _, b := range ct.boundary {
		enc.Int(int(b))
	}
	enc.Int(len(ct.interior))
	for _, b := range ct.interior {
		enc.Bool(b)
	}
	enc.Int(len(ct.pinCount))
	for _, p := range ct.pinCount {
		enc.Int(int(p))
	}
	enc.Int(len(ct.aliveInterior))
	for _, a := range ct.aliveInterior {
		enc.Int(int(a))
	}
	enc.Int(ct.redDevices)
	enc.Int(len(ct.witness))
	keys := make([]int, 0, len(ct.witness))
	for k := range ct.witness {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		enc.Int(k)
		enc.Int(ct.witness[k])
	}
	return enc.Bytes()
}

func decodeCertificate(payload []byte) (*certificate, error) {
	d := castore.NewDec(payload)
	ct := &certificate{ok: d.Bool(), nets: d.Int()}
	var err error
	if ct.devs, err = decodeDevices(d, ct.nets); err != nil {
		return nil, err
	}
	nB := d.Len(8)
	for i := 0; i < nB; i++ {
		b := d.Int()
		if d.Err() == nil && (b < 0 || b >= ct.nets) {
			return nil, fmt.Errorf("castore: decode: boundary net %d out of %d", b, ct.nets)
		}
		ct.boundary = append(ct.boundary, int32(b))
	}
	if n := d.Len(1); n > 0 {
		ct.interior = make([]bool, n)
		for i := range ct.interior {
			ct.interior[i] = d.Bool()
		}
	}
	if n := d.Len(8); n > 0 {
		ct.pinCount = make([]int32, n)
		for i := range ct.pinCount {
			ct.pinCount[i] = int32(d.Int())
		}
	}
	nA := d.Len(8)
	for i := 0; i < nA; i++ {
		a := d.Int()
		if d.Err() == nil && (a < 0 || a >= ct.nets) {
			return nil, fmt.Errorf("castore: decode: alive-interior net %d out of %d", a, ct.nets)
		}
		ct.aliveInterior = append(ct.aliveInterior, int32(a))
	}
	ct.redDevices = d.Int()
	nW := d.Len(16)
	if nW > 0 {
		ct.witness = make(map[int]int, nW)
		for i := 0; i < nW; i++ {
			k := d.Int()
			ct.witness[k] = d.Int()
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	if ct.nets < 0 || ct.redDevices < 0 {
		return nil, fmt.Errorf("castore: decode: negative count")
	}
	// the isolation arrays must span the net space exactly (compare
	// paths index them by net id without further checks)
	if len(ct.interior) != ct.nets || len(ct.pinCount) != ct.nets {
		return nil, fmt.Errorf("castore: decode: isolation arrays sized %d/%d for %d nets",
			len(ct.interior), len(ct.pinCount), ct.nets)
	}
	return ct, nil
}

func encodeDevices(enc *castore.Enc, devs []Device) {
	enc.Int(len(devs))
	for _, d := range devs {
		enc.U8(uint8(d.Kind))
		enc.Int(d.Gate)
		enc.Int(d.A)
		enc.Int(d.B)
	}
}

func decodeDevices(d *castore.Dec, nets int) ([]Device, error) {
	n := d.Len(25)
	if n == 0 {
		return nil, d.Err()
	}
	devs := make([]Device, n)
	for i := range devs {
		dev := Device{Kind: sticks.DeviceKind(d.U8()), Gate: d.Int(), A: d.Int(), B: d.Int()}
		if d.Err() == nil {
			for _, net := range [3]int{dev.Gate, dev.A, dev.B} {
				if net < 0 || net >= nets {
					return nil, fmt.Errorf("castore: decode: device net %d out of %d", net, nets)
				}
			}
		}
		devs[i] = dev
	}
	return devs, d.Err()
}

func encodeLabels(enc *castore.Enc, labels map[string]int) {
	enc.Int(len(labels))
	names := make([]string, 0, len(labels))
	for name := range labels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		enc.Str(name)
		enc.Int(labels[name])
	}
}

func decodeLabels(d *castore.Dec, nets int) (map[string]int, error) {
	n := d.Len(16)
	labels := make(map[string]int, n)
	for i := 0; i < n; i++ {
		name := d.Str()
		net := d.Int()
		if d.Err() == nil && (net < 0 || net >= nets) {
			return nil, fmt.Errorf("castore: decode: label %q net %d out of %d", name, net, nets)
		}
		labels[name] = net
	}
	return labels, d.Err()
}

func encodeRect(enc *castore.Enc, r geom.Rect) {
	enc.Int(r.Min.X)
	enc.Int(r.Min.Y)
	enc.Int(r.Max.X)
	enc.Int(r.Max.Y)
}

func decodeRect(d *castore.Dec) geom.Rect {
	return geom.Rect{Min: geom.Pt(d.Int(), d.Int()), Max: geom.Pt(d.Int(), d.Int())}
}
