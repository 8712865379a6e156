package hier

import (
	"crypto/sha256"
	"fmt"

	"riot/internal/castore"
	"riot/internal/core"
	"riot/internal/drc"
	"riot/internal/extract"
	"riot/internal/faultinject"
	"riot/internal/flatten"
	"riot/internal/geom"
	"riot/internal/rules"
	"riot/internal/sticks"
)

// Certificates persist in the content-addressed store under their own
// namespace, keyed by the cell's content signature mixed with the
// orientation, and fingerprinted by the encoding version plus the rule
// parameters the certificate bakes in. A warm restart loads
// certificates instead of re-running per-cell extraction and DRC; a
// rules or format change rotates the fingerprint and silently
// invalidates every entry.
const certNamespace = "hiercert"

func certFingerprint() uint64 {
	return castore.Fingerprint("hier-cert", "enc-v1", fmt.Sprintf("lambda=%d", rules.Lambda))
}

// certKeyFor derives the store key for one (cell, orientation): the
// identity orientation uses the cell signature directly; others hash
// the signature with the orientation byte.
func (e *Engine) certKeyFor(c *core.Cell, o geom.Orient) (castore.Key, bool) {
	if e.disk == nil || e.signer == nil {
		return castore.Key{}, false
	}
	k, err := e.signer.Cell(c)
	if err != nil {
		return castore.Key{}, false
	}
	if o != geom.R0 {
		h := sha256.New()
		h.Write(k[:])
		h.Write([]byte{byte(o)})
		var kk castore.Key
		copy(kk[:], h.Sum(nil))
		k = kk
	}
	return k, true
}

func (e *Engine) diskLoad(c *core.Cell, o geom.Orient) *Cert {
	key, ok := e.certKeyFor(c, o)
	if !ok {
		return nil
	}
	payload, ok := e.disk.Get(certNamespace, key, certFingerprint())
	if !ok {
		return nil
	}
	if e.Faults.Hit(faultinject.CertDecode, c.Name) {
		// A trailing garbage byte survives the store's CRC (it already
		// validated) but makes the bounded decoder's Done() fail —
		// exactly the shape of a version-skew or truncated-write bug.
		payload = append(append([]byte(nil), payload...), 0xFF)
	}
	ct, err := decodeCert(payload)
	if err != nil {
		e.disk.Discard(certNamespace, key, err.Error())
		return nil
	}
	if ct.Orient != o {
		e.disk.Discard(certNamespace, key, "orientation mismatch")
		return nil
	}
	ct.Cell = c
	return ct
}

func (e *Engine) diskStore(ct *Cert) {
	key, ok := e.certKeyFor(ct.Cell, ct.Orient)
	if !ok {
		return
	}
	e.disk.Put(certNamespace, key, certFingerprint(), encodeCert(ct))
	e.stats.CertStored++
}

func encRect(enc *castore.Enc, r geom.Rect) {
	enc.Int(r.Min.X)
	enc.Int(r.Min.Y)
	enc.Int(r.Max.X)
	enc.Int(r.Max.Y)
}

func decRect(d *castore.Dec) geom.Rect {
	x0, y0 := d.Int(), d.Int()
	x1, y1 := d.Int(), d.Int()
	return geom.Rect{Min: geom.Pt(x0, y0), Max: geom.Pt(x1, y1)}
}

func encPoint(enc *castore.Enc, p geom.Point) {
	enc.Int(p.X)
	enc.Int(p.Y)
}

func decPoint(d *castore.Dec) geom.Point {
	x, y := d.Int(), d.Int()
	return geom.Pt(x, y)
}

func encodeCert(ct *Cert) []byte {
	enc := &castore.Enc{}
	enc.U8(uint8(ct.Orient))

	x := ct.X
	enc.Int(len(x.Frags))
	for _, s := range x.Frags {
		enc.Str(string(s.Layer))
		encRect(enc, s.R)
	}
	for _, n := range x.FragNet {
		enc.Int(int(n))
	}
	enc.Int(x.NetCount)
	enc.Int(len(x.Devices))
	for _, dv := range x.Devices {
		enc.U8(uint8(dv.Kind))
		encRect(enc, dv.Gate)
		enc.Int(int(dv.GateNet))
		enc.Int(int(dv.ANet))
		enc.Int(int(dv.BNet))
	}
	enc.Bool(x.Pend)
	enc.Int(len(x.Joins))
	for _, j := range x.Joins {
		encPoint(enc, j.At[0])
		encPoint(enc, j.At[1])
		enc.Str(string(j.Layers[0]))
		enc.Str(string(j.Layers[1]))
	}
	encRect(enc, x.Box)
	encRect(enc, x.MatBox)

	d := ct.D
	enc.Int(len(d.Layers))
	for _, l := range d.Layers {
		enc.Str(string(l))
		rects := d.Rects[l]
		enc.Int(len(rects))
		for _, r := range rects {
			encRect(enc, r)
		}
		for _, c := range d.Comp[l] {
			enc.Int(int(c))
		}
		resid := d.Resid[l]
		enc.Int(len(resid))
		for _, r := range resid {
			encRect(enc, r)
		}
	}
	enc.Int(len(d.DirtyCuts))
	for _, r := range d.DirtyCuts {
		encRect(enc, r)
	}
	return enc.Bytes()
}

func decodeCert(payload []byte) (*Cert, error) {
	d := castore.NewDec(payload)
	ct := &Cert{Orient: geom.Orient(d.U8())}

	x := &extract.CellCert{}
	nf := d.Len(5)
	for i := 0; i < nf && d.Err() == nil; i++ {
		l := geom.Layer(d.Str())
		x.Frags = append(x.Frags, flatten.Shape{Layer: l, R: decRect(d)})
	}
	for i := 0; i < nf && d.Err() == nil; i++ {
		x.FragNet = append(x.FragNet, int32(d.Int()))
	}
	x.NetCount = d.Int()
	ndv := d.Len(8)
	for i := 0; i < ndv && d.Err() == nil; i++ {
		x.Devices = append(x.Devices, extract.CertDevice{
			Kind:    sticks.DeviceKind(d.U8()),
			Gate:    decRect(d),
			GateNet: int32(d.Int()),
			ANet:    int32(d.Int()),
			BNet:    int32(d.Int()),
		})
	}
	x.Pend = d.Bool()
	nj := d.Len(10)
	for i := 0; i < nj && d.Err() == nil; i++ {
		var j extract.CertJoin
		j.At[0] = decPoint(d)
		j.At[1] = decPoint(d)
		j.Layers[0] = geom.Layer(d.Str())
		j.Layers[1] = geom.Layer(d.Str())
		x.Joins = append(x.Joins, j)
	}
	x.Box = decRect(d)
	x.MatBox = decRect(d)

	dc := &drc.CellDRC{
		Rects: map[geom.Layer][]geom.Rect{},
		Comp:  map[geom.Layer][]int32{},
		Resid: map[geom.Layer][]geom.Rect{},
	}
	nl := d.Len(3)
	for i := 0; i < nl && d.Err() == nil; i++ {
		l := geom.Layer(d.Str())
		dc.Layers = append(dc.Layers, l)
		nr := d.Len(4)
		var rects []geom.Rect
		var comp []int32
		for k := 0; k < nr && d.Err() == nil; k++ {
			rects = append(rects, decRect(d))
		}
		for k := 0; k < nr && d.Err() == nil; k++ {
			comp = append(comp, int32(d.Int()))
		}
		dc.Rects[l] = rects
		dc.Comp[l] = comp
		nres := d.Len(4)
		var resid []geom.Rect
		for k := 0; k < nres && d.Err() == nil; k++ {
			resid = append(resid, decRect(d))
		}
		dc.Resid[l] = resid
	}
	ncut := d.Len(4)
	for i := 0; i < ncut && d.Err() == nil; i++ {
		dc.DirtyCuts = append(dc.DirtyCuts, decRect(d))
	}

	if err := d.Done(); err != nil {
		return nil, err
	}
	ct.X, ct.D = x, dc
	if err := x.Seal(); err != nil {
		return nil, err
	}
	if err := dc.Seal(); err != nil {
		return nil, err
	}
	return ct, nil
}
