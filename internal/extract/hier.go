package extract

import (
	"fmt"

	"riot/internal/flatten"
	"riot/internal/geom"
	"riot/internal/sticks"
)

// CellCert is a per-distinct-cell extraction certificate: the cell's
// fragment list, its local net partition, and everything about the
// cell's connectivity that could NOT be settled locally (joins whose
// resolution depends on surrounding material, device probes landing
// off the cell's own diffusion). The hierarchical engine solves each
// distinct (cell, orientation) once into a certificate and composes
// placements by translating it — translation preserves fragment
// emission order, gate-subtraction piece order and locator tie-breaks
// exactly, which is what makes the composed circuit byte-identical to
// the flat solve. Orientation does NOT commute with those orders, so
// certificates are built per orientation from an oriented flatten
// (flatten.CellAt), never by rotating an identity certificate.
type CellCert struct {
	// Frags is the fragment list in solve order, in the oriented local
	// frame (a placement at translation d shifts every rectangle by d).
	Frags []flatten.Shape
	// FragNet maps each fragment to its dense local net id.
	FragNet []int32
	// NetCount is the number of local nets.
	NetCount int
	// Devices lists the cell's transistors in flatten order with their
	// locally-resolved terminals (-1 where resolution needs context).
	Devices []CertDevice
	// Pend is set when any device terminal failed to resolve locally.
	// The flat solver would either find the terminal on a neighbor's
	// material or error; the engine falls back to the flat path so the
	// verdict (including the error message) stays identical.
	Pend bool
	// Joins lists the contact joins that were NOT baked into FragNet:
	// every join with a LayerNone side (the flat solver picks the
	// lowest GLOBAL fragment across eligible layers, a choice that
	// depends on surrounding material), and every named-layer join with
	// a side that found no local material. The engine resolves these in
	// placement context.
	Joins []CertJoin
	// Box is the cell's declared bounding box in the oriented local
	// frame — the seam-trust frame (drc "trusted" pairs).
	Box geom.Rect
	// MatBox bounds all raw material (shapes, gates, channels) in the
	// oriented local frame; pair interaction tests use it.
	MatBox geom.Rect

	loc *locator
}

// CertDevice is one transistor of a certificate. Terminal nets are
// local net ids, or -1 when the probe found no local material. Gate is
// kept for the engine's cross-occurrence gate/diffusion poison test.
type CertDevice struct {
	Kind                sticks.DeviceKind
	Gate                geom.Rect
	GateNet, ANet, BNet int32
}

// CertJoin is a contact join the certificate left for the engine:
// local-frame points and the layer constraint of each side (LayerNone
// = "any layer below the cut", the CIF NC rule).
type CertJoin struct {
	At     [2]geom.Point
	Layers [2]geom.Layer
}

// CellSolve builds the extraction certificate for one flattened cell.
// fr must be the flatten of a single leaf occurrence (flatten.CellAt
// of a non-composition cell); the fragments come from the flat
// solver's own connect pipeline, so a placement of this certificate
// contributes the same fragments, in the same order, with the same
// intra-cell unions as the flat solve of the whole design.
func CellSolve(fr *flatten.Result) (*CellCert, error) {
	if len(fr.SrcBoxes) != 1 {
		return nil, fmt.Errorf("extract: cell certificate needs exactly one leaf occurrence, got %d", len(fr.SrcBoxes))
	}
	frags, uf, loc := connect(fr)
	c := &CellCert{Frags: frags, loc: loc, Box: fr.SrcBoxes[0]}

	// Bake only joins that are fully local AND choice-independent: both
	// sides name a layer and both resolve on local material. Any two
	// same-layer fragments containing one point touch and therefore
	// share a net, so whichever fragment a locator picks — ours now, or
	// the flat solver's global one later — the unioned nets agree. A
	// LayerNone side is different: the flat solver takes the lowest
	// global fragment across eligible layers, and material from another
	// occurrence can win that race on a different layer, so those joins
	// must wait for placement context.
	for _, j := range fr.Joins {
		if j.Layers[0] != geom.LayerNone && j.Layers[1] != geom.LayerNone {
			ia := loc.findAt(j.At[0], j.Layers[0])
			ib := loc.findAt(j.At[1], j.Layers[1])
			if ia >= 0 && ib >= 0 {
				uf.Union(ia, ib)
				continue
			}
		}
		c.Joins = append(c.Joins, CertJoin{At: j.At, Layers: j.Layers})
	}

	// dense local net numbering in fragment order — the engine's
	// (occurrence, local net) lexicographic renumbering reproduces the
	// flat solver's first-fragment dense order from this
	c.FragNet, c.NetCount = uf.Dense()

	netAt := func(at geom.Point, layer geom.Layer) int32 {
		i := loc.findOnLayer(at, layer)
		if i < 0 {
			return -1
		}
		return c.FragNet[i]
	}
	for _, d := range fr.Devices {
		cd := CertDevice{
			Kind:    d.Kind,
			Gate:    d.Gate,
			GateNet: netAt(centerOf(d.Gate), geom.NP),
			ANet:    netAt(d.ProbeA, geom.ND),
			BNet:    netAt(d.ProbeB, geom.ND),
		}
		if cd.GateNet < 0 || cd.ANet < 0 || cd.BNet < 0 {
			c.Pend = true
		}
		c.Devices = append(c.Devices, cd)
	}

	for i, s := range fr.Shapes {
		if i == 0 {
			c.MatBox = s.R.Canon()
		} else {
			c.MatBox = c.MatBox.Union(s.R.Canon())
		}
	}
	if len(fr.Shapes) == 0 {
		c.MatBox = geom.R(c.Box.Min.X, c.Box.Min.Y, c.Box.Min.X, c.Box.Min.Y)
	}
	return c, nil
}

// Seal rebuilds the certificate's internal locator (after a disk
// decode) and validates the invariants the engine relies on: the net
// count is one the fragments can carry (the engine sizes its
// union-find by it), every net id and terminal lies in the net space
// (a terminal may be -1, unresolved), and Pend is set exactly when
// some terminal is unresolved (the engine declines on Pend and
// otherwise indexes terminals unguarded).
func (c *CellCert) Seal() error {
	if len(c.FragNet) != len(c.Frags) {
		return fmt.Errorf("extract: certificate fragment/net length mismatch")
	}
	if c.NetCount < 0 || c.NetCount > len(c.Frags) {
		return fmt.Errorf("extract: certificate net count %d out of range for %d fragments", c.NetCount, len(c.Frags))
	}
	for _, n := range c.FragNet {
		if n < 0 || int(n) >= c.NetCount {
			return fmt.Errorf("extract: certificate net id %d out of range", n)
		}
	}
	pend := false
	for _, d := range c.Devices {
		for _, n := range [3]int32{d.GateNet, d.ANet, d.BNet} {
			if n < -1 || int(n) >= c.NetCount {
				return fmt.Errorf("extract: certificate device net %d out of range", n)
			}
			pend = pend || n < 0
		}
	}
	if pend != c.Pend {
		return fmt.Errorf("extract: certificate pend flag %v disagrees with its device terminals", c.Pend)
	}
	c.loc = newLocator(c.Frags)
	return nil
}

// FindOnLayer returns the local net of the lowest fragment on the
// layer containing the (local-frame) point, or -1.
func (c *CellCert) FindOnLayer(at geom.Point, layer geom.Layer) int32 {
	i := c.loc.findOnLayer(at, layer)
	if i < 0 {
		return -1
	}
	return c.FragNet[i]
}

// FindAtNone returns the local net of the lowest eligible fragment
// (any layer but metal and cut) containing the point, or -1 — the
// per-occurrence half of the flat solver's LayerNone join rule: the
// flat fragment list is occurrence-major, so the lowest GLOBAL
// fragment lives in the lowest occurrence with any eligible material
// at the point, and within that occurrence it is exactly this pick.
func (c *CellCert) FindAtNone(at geom.Point) int32 {
	i := c.loc.findAt(at, geom.LayerNone)
	if i < 0 {
		return -1
	}
	return c.FragNet[i]
}

// QueryLayer visits the certificate's fragments on one layer whose
// rectangles touch r (local frame). Return false to stop.
func (c *CellCert) QueryLayer(layer geom.Layer, r geom.Rect, fn func(frag int) bool) {
	ix, ok := c.loc.byLayer[layer]
	if !ok {
		return
	}
	ids := c.loc.fragIDs[layer]
	ix.QueryRect(r, func(id int) bool { return fn(ids[id]) })
}

// FragLayers returns the layers the certificate's fragments occupy, in
// no particular order.
func (c *CellCert) FragLayers() []geom.Layer {
	out := make([]geom.Layer, 0, len(c.loc.byLayer))
	for l := range c.loc.byLayer {
		out = append(out, l)
	}
	return out
}
