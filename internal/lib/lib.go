// Package lib generates the leaf cells of the paper's figure 8: "The
// input and output pads were taken from a library of CIF cells. The
// shift register cell, NAND and OR gates were laid out in REST, and are
// defined as symbolic layout in Sticks."
//
// The pads are CIF (geometry only — "the pads cannot be stretched by
// Riot and all connections to them will have to be made by routing");
// the gates are Sticks and therefore stretchable. The package also
// provides the "pre-defined pipe fittings [that] aid complex routes for
// power, ground and clock lines".
//
// Everything is generated on the lambda grid with Mead & Conway nMOS
// rules, so every connector is reachable by the river router and every
// symbolic cell survives the compactor.
package lib

import (
	"bytes"
	"fmt"
	"sync"

	"riot/internal/cif"
	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/rules"
	"riot/internal/sticks"
)

const l = rules.Lambda

// SRCell builds the shift-register stage of figure 8. The cell chains
// left to right (IN/OUT), carries power and ground rails across for
// abutment ("the array elements abut, making the shift register chain
// connections as well as power and ground connections"), passes the
// two clock phases through vertically, and exposes the stage's tap on
// the bottom edge so a NAND row below can read the delayed bit.
//
//	     PHI1  PHI2                 (top, poly)
//	PWRL +--+----+--------+ PWRR    (metal rail, y=22)
//	IN   |  sr stage      | OUT     (poly, y=12)
//	GNDL +--+----+--------+ GNDR    (metal rail, y=2)
//	     PHI1B PHI2B TAP            (bottom, poly)
func SRCell() *sticks.Cell {
	return &sticks.Cell{
		Name:   "SRCELL",
		Box:    geom.R(0, 0, 20, 24),
		HasBox: true,
		Wires: []sticks.Wire{
			{Layer: geom.NM, Width: 4, Points: []geom.Point{{X: 0, Y: 22}, {X: 20, Y: 22}}}, // VDD
			{Layer: geom.NM, Width: 4, Points: []geom.Point{{X: 0, Y: 2}, {X: 20, Y: 2}}},   // GND
			{Layer: geom.NP, Width: 2, Points: []geom.Point{{X: 0, Y: 12}, {X: 20, Y: 12}}}, // data
			{Layer: geom.NP, Width: 2, Points: []geom.Point{{X: 6, Y: 0}, {X: 6, Y: 24}}},   // phi1
			{Layer: geom.NP, Width: 2, Points: []geom.Point{{X: 10, Y: 0}, {X: 10, Y: 24}}}, // phi2
			{Layer: geom.ND, Width: 2, Points: []geom.Point{{X: 14, Y: 2}, {X: 14, Y: 22}}}, // pullup chain
			{Layer: geom.NP, Width: 2, Points: []geom.Point{{X: 18, Y: 0}, {X: 18, Y: 12}}}, // tap leg
		},
		Devices: []sticks.Device{
			{Kind: sticks.Enhancement, At: geom.Pt(6, 12), Vertical: true, W: 2, L: 2},  // phi1 pass
			{Kind: sticks.Enhancement, At: geom.Pt(10, 12), Vertical: true, W: 2, L: 2}, // phi2 pass
			{Kind: sticks.Enhancement, At: geom.Pt(14, 8), Vertical: true, W: 4, L: 2},  // inverter pulldown
			{Kind: sticks.Depletion, At: geom.Pt(14, 17), Vertical: true, W: 2, L: 4},   // inverter pullup
		},
		Contacts: []sticks.Contact{
			{From: geom.NM, To: geom.ND, At: geom.Pt(14, 22)},
			{From: geom.NM, To: geom.ND, At: geom.Pt(14, 2)},
		},
		Connectors: []sticks.Connector{
			{Name: "PWRL", At: geom.Pt(0, 22), Layer: geom.NM, Width: 4, Side: geom.SideLeft},
			{Name: "PWRR", At: geom.Pt(20, 22), Layer: geom.NM, Width: 4, Side: geom.SideRight},
			{Name: "GNDL", At: geom.Pt(0, 2), Layer: geom.NM, Width: 4, Side: geom.SideLeft},
			{Name: "GNDR", At: geom.Pt(20, 2), Layer: geom.NM, Width: 4, Side: geom.SideRight},
			{Name: "IN", At: geom.Pt(0, 12), Layer: geom.NP, Width: 2, Side: geom.SideLeft},
			{Name: "OUT", At: geom.Pt(20, 12), Layer: geom.NP, Width: 2, Side: geom.SideRight},
			{Name: "PHI1", At: geom.Pt(6, 24), Layer: geom.NP, Width: 2, Side: geom.SideTop},
			{Name: "PHI2", At: geom.Pt(10, 24), Layer: geom.NP, Width: 2, Side: geom.SideTop},
			{Name: "PHI1B", At: geom.Pt(6, 0), Layer: geom.NP, Width: 2, Side: geom.SideBottom},
			{Name: "PHI2B", At: geom.Pt(10, 0), Layer: geom.NP, Width: 2, Side: geom.SideBottom},
			{Name: "TAP", At: geom.Pt(18, 0), Layer: geom.NP, Width: 2, Side: geom.SideBottom},
		},
	}
}

// NAND builds the two-input NAND gate of figure 8, electrically
// complete: a series pulldown chain (B below A) between ground and the
// output node, a gate-to-source-tied depletion pullup, and the output
// leaving on poly through the pullup's gate tie. The inputs enter on
// the BOTTOM edge and the output leaves on the TOP edge; the filter
// places the gate flipped (MXR180) so inputs face the register taps
// above and the output faces the OR gate below — exercising Riot's
// orientation handling exactly as a real library cell would.
//
//	            OUT (top, poly through the VDD rail)
//	PWRL ═══════╪═══════ PWRR   y=18  (metal)
//	        [dep, gate→OUT]     y=15
//	         ── output node ──  y=12  (ND-NP contact)
//	        [enh A]             y=9
//	        [enh B]             y=5
//	GNDL ═══════╪═══════ GNDR   y=2   (metal)
//	     B(x4)      A(x16)      bottom (poly)
func NAND() *sticks.Cell {
	return &sticks.Cell{
		Name:   "NAND",
		Box:    geom.R(0, 0, 20, 20),
		HasBox: true,
		Wires: []sticks.Wire{
			{Layer: geom.NM, Width: 4, Points: []geom.Point{{X: 0, Y: 18}, {X: 20, Y: 18}}},               // VDD rail
			{Layer: geom.NM, Width: 4, Points: []geom.Point{{X: 0, Y: 2}, {X: 20, Y: 2}}},                 // GND rail
			{Layer: geom.ND, Width: 2, Points: []geom.Point{{X: 10, Y: 2}, {X: 10, Y: 18}}},               // pulldown chain
			{Layer: geom.ND, Width: 2, Points: []geom.Point{{X: 10, Y: 2}, {X: 6, Y: 2}}},                 // jog to the GND contact
			{Layer: geom.ND, Width: 2, Points: []geom.Point{{X: 10, Y: 18}, {X: 6, Y: 18}}},               // jog to the VDD contact
			{Layer: geom.NP, Width: 2, Points: []geom.Point{{X: 4, Y: 0}, {X: 4, Y: 5}, {X: 10, Y: 5}}},   // input B to its gate
			{Layer: geom.NP, Width: 2, Points: []geom.Point{{X: 16, Y: 0}, {X: 16, Y: 9}, {X: 10, Y: 9}}}, // input A to its gate
			{Layer: geom.NP, Width: 2, Points: []geom.Point{{X: 10, Y: 13}, {X: 10, Y: 20}}},              // output: node contact up through the dep gate tie
		},
		Devices: []sticks.Device{
			{Kind: sticks.Enhancement, At: geom.Pt(10, 5), Vertical: true, W: 2, L: 2}, // B (lower)
			{Kind: sticks.Enhancement, At: geom.Pt(10, 9), Vertical: true, W: 2, L: 2}, // A (upper)
			{Kind: sticks.Depletion, At: geom.Pt(10, 16), Vertical: true, W: 2, L: 2},  // pullup, gate tied to OUT
		},
		Contacts: []sticks.Contact{
			{From: geom.NM, To: geom.ND, At: geom.Pt(6, 2)},   // GND
			{From: geom.NM, To: geom.ND, At: geom.Pt(6, 18)},  // VDD
			{From: geom.ND, To: geom.NP, At: geom.Pt(10, 13)}, // output node tap
		},
		Connectors: []sticks.Connector{
			{Name: "PWRL", At: geom.Pt(0, 18), Layer: geom.NM, Width: 4, Side: geom.SideLeft},
			{Name: "PWRR", At: geom.Pt(20, 18), Layer: geom.NM, Width: 4, Side: geom.SideRight},
			{Name: "GNDL", At: geom.Pt(0, 2), Layer: geom.NM, Width: 4, Side: geom.SideLeft},
			{Name: "GNDR", At: geom.Pt(20, 2), Layer: geom.NM, Width: 4, Side: geom.SideRight},
			{Name: "B", At: geom.Pt(4, 0), Layer: geom.NP, Width: 2, Side: geom.SideBottom},
			{Name: "A", At: geom.Pt(16, 0), Layer: geom.NP, Width: 2, Side: geom.SideBottom},
			{Name: "OUT", At: geom.Pt(10, 20), Layer: geom.NP, Width: 2, Side: geom.SideTop},
		},
		// keep the cell exactly one register pitch (20 lambda) wide
		// under stretching, so stretched gates tile rail-to-rail under
		// the shift-register array (the figure-9b assembly)
		Constraints: []sticks.Constraint{
			{Axis: sticks.AxisX, A: "PWRL", B: "PWRR", Min: 20},
			{Axis: sticks.AxisX, A: "GNDL", B: "GNDR", Min: 20},
		},
	}
}

// OR4 builds the four-input OR gate of figure 8, electrically
// complete in the nMOS idiom: a four-way NOR (parallel pulldown legs
// into a shared drain rail with a gate-tied depletion pullup) followed
// by an inverter. Like the NAND, the inputs enter on the BOTTOM edge
// (the filter flips the cell so they face the NAND outputs above) and
// the output leaves on the right edge.
func OR4() *sticks.Cell {
	const w = 56
	c := &sticks.Cell{
		Name:   "OR4",
		Box:    geom.R(0, 0, w, 20),
		HasBox: true,
		Wires: []sticks.Wire{
			{Layer: geom.NM, Width: 4, Points: []geom.Point{{X: 0, Y: 18}, {X: w, Y: 18}}}, // VDD rail
			{Layer: geom.NM, Width: 4, Points: []geom.Point{{X: 0, Y: 2}, {X: w, Y: 2}}},   // GND rail
			// shared NOR drain rail (the NOR node)
			{Layer: geom.ND, Width: 2, Points: []geom.Point{{X: 6, Y: 12}, {X: 37, Y: 12}}},
			// NOR depletion pullup leg
			{Layer: geom.ND, Width: 2, Points: []geom.Point{{X: 37, Y: 12}, {X: 37, Y: 18}}},
			// NOR node to poly, over to the inverter gate
			{Layer: geom.NP, Width: 2, Points: []geom.Point{{X: 35, Y: 11}, {X: 41, Y: 11}, {X: 41, Y: 8}, {X: 45, Y: 8}}},
			// inverter pulldown and pullup legs
			{Layer: geom.ND, Width: 2, Points: []geom.Point{{X: 45, Y: 4}, {X: 45, Y: 18}}},
			// output node to poly, out to the right edge
			{Layer: geom.ND, Width: 2, Points: []geom.Point{{X: 45, Y: 12}, {X: 49, Y: 12}}},
			{Layer: geom.NP, Width: 2, Points: []geom.Point{{X: 49, Y: 12}, {X: w, Y: 12}}},
		},
		Devices: []sticks.Device{
			{Kind: sticks.Depletion, At: geom.Pt(37, 15), Vertical: true, W: 2, L: 2},  // NOR pullup, gate tied to NOR node
			{Kind: sticks.Enhancement, At: geom.Pt(45, 8), Vertical: true, W: 2, L: 2}, // inverter pulldown
			{Kind: sticks.Depletion, At: geom.Pt(45, 15), Vertical: true, W: 2, L: 2},  // inverter pullup, gate tied to OUT
		},
		Contacts: []sticks.Contact{
			{From: geom.ND, To: geom.NP, At: geom.Pt(33, 12)}, // NOR node tap (ties the NOR pullup gate)
			{From: geom.NM, To: geom.ND, At: geom.Pt(37, 18)}, // NOR pullup VDD
			{From: geom.NM, To: geom.ND, At: geom.Pt(45, 4)},  // inverter GND
			{From: geom.NM, To: geom.ND, At: geom.Pt(45, 18)}, // inverter VDD
			{From: geom.ND, To: geom.NP, At: geom.Pt(49, 12)}, // output tap (ties the inverter pullup gate)
		},
		Connectors: []sticks.Connector{
			{Name: "PWRL", At: geom.Pt(0, 18), Layer: geom.NM, Width: 4, Side: geom.SideLeft},
			{Name: "PWRR", At: geom.Pt(w, 18), Layer: geom.NM, Width: 4, Side: geom.SideRight},
			{Name: "GNDL", At: geom.Pt(0, 2), Layer: geom.NM, Width: 4, Side: geom.SideLeft},
			{Name: "GNDR", At: geom.Pt(w, 2), Layer: geom.NM, Width: 4, Side: geom.SideRight},
			{Name: "OUT", At: geom.Pt(w, 12), Layer: geom.NP, Width: 2, Side: geom.SideRight},
		},
	}
	// four NOR pulldown legs: diffusion from a grounded contact up
	// through the input gate into the shared drain rail; each input
	// arrives on poly from the bottom edge, one gate-pitch to the left
	// of its leg
	for i := 0; i < 4; i++ {
		x := 6 + 9*i
		c.Wires = append(c.Wires,
			sticks.Wire{Layer: geom.ND, Width: 2, Points: []geom.Point{{X: x, Y: 4}, {X: x, Y: 12}}},
			sticks.Wire{Layer: geom.NP, Width: 2, Points: []geom.Point{{X: x - 4, Y: 0}, {X: x - 4, Y: 8}, {X: x, Y: 8}}},
		)
		c.Devices = append(c.Devices,
			sticks.Device{Kind: sticks.Enhancement, At: geom.Pt(x, 8), Vertical: true, W: 2, L: 2})
		c.Contacts = append(c.Contacts,
			sticks.Contact{From: geom.NM, To: geom.ND, At: geom.Pt(x, 4)})
		c.Connectors = append(c.Connectors, sticks.Connector{
			Name: fmt.Sprintf("IN%d", i), At: geom.Pt(x-4, 0), Layer: geom.NP, Width: 2, Side: geom.SideBottom,
		})
	}
	return c
}

// PipeFitting builds one of the pre-defined route-helper cells: an
// L-shaped wire that turns a bus corner (the river router itself
// "cannot turn corners"). The cell enters on the left edge and leaves
// on the top edge.
func PipeFitting(name string, layer geom.Layer, width int) *sticks.Cell {
	if width <= 0 {
		width = rules.MinWidth(layer)
	}
	s := width * 2
	return &sticks.Cell{
		Name:   name,
		Box:    geom.R(0, 0, 2*s, 2*s),
		HasBox: true,
		Wires: []sticks.Wire{
			{Layer: layer, Width: width, Points: []geom.Point{{X: 0, Y: s}, {X: s, Y: s}, {X: s, Y: 2 * s}}},
		},
		Connectors: []sticks.Connector{
			{Name: "A", At: geom.Pt(0, s), Layer: layer, Width: width, Side: geom.SideLeft},
			{Name: "B", At: geom.Pt(s, 2*s), Layer: layer, Width: width, Side: geom.SideTop},
		},
	}
}

// padSize is the bond-pad cell size in lambda (100x100 lambda pads
// were typical for 2.5-micron processes).
const padSize = 60

// padCIF builds a bond-pad symbol: metal pad, overglass opening, and a
// single connector where the pad meets the chip core. dir selects the
// connector edge (the pad is otherwise symmetric). Input pads add a
// poly series resistor and clamp structure marker; output pads a wider
// metal neck.
func padCIF(id int, name string, input bool) *cif.Symbol {
	s := padSize * l
	sym := &cif.Symbol{ID: id, A: 1, B: 1, Name: name}
	pad := cif.Box{Layer: geom.NM, Length: s - 8*l, Width: s - 8*l,
		Center: geom.Pt(s/2, s/2+4*l), Direction: geom.Pt(1, 0)}
	glass := cif.Box{Layer: geom.NG, Length: s - 16*l, Width: s - 16*l,
		Center: geom.Pt(s/2, s/2+4*l), Direction: geom.Pt(1, 0)}
	sym.Elements = append(sym.Elements, pad, glass)
	// metal stub leaving the pad, then a poly neck to the cell edge:
	// the signal enters and leaves the chip core on poly (input pads
	// carry their protection resistor in this neck; output pads meet
	// the driver gate), so pad connections are layer-compatible with
	// the gate inputs and outputs they route to.
	sym.Elements = append(sym.Elements, cif.Wire{
		Layer: geom.NM, Width: 4 * l,
		Points: []geom.Point{{X: s / 2, Y: 10 * l}, {X: s / 2, Y: 6 * l}},
	})
	sym.Elements = append(sym.Elements, cif.Box{ // metal-poly contact
		Layer: geom.NM, Length: 4 * l, Width: 4 * l,
		Center: geom.Pt(s/2, 5*l), Direction: geom.Pt(1, 0)})
	sym.Elements = append(sym.Elements, cif.Box{
		Layer: geom.NC, Length: 2 * l, Width: 2 * l,
		Center: geom.Pt(s/2, 5*l), Direction: geom.Pt(1, 0)})
	neckW := 2 * l
	if !input {
		neckW = 4 * l
	}
	// the neck stops half a wire width above the cell edge so the
	// wire's end cap lands exactly on the bounding box, where the
	// connector sits
	sym.Elements = append(sym.Elements, cif.Wire{
		Layer: geom.NP, Width: neckW,
		Points: []geom.Point{{X: s / 2, Y: 5 * l}, {X: s / 2, Y: neckW / 2}},
	})
	sym.Elements = append(sym.Elements, cif.Connector{
		Name: "P", At: geom.Pt(s/2, 0), Layer: geom.NP, Width: 2 * l,
	})
	return sym
}

// PadFile builds the figure-8 pad library as one CIF file holding the
// input and output pads.
func PadFile() *cif.File {
	return &cif.File{Symbols: []*cif.Symbol{
		padCIF(1, "PADIN", true),
		padCIF(2, "PADOUT", false),
	}}
}

// Cells builds every library cell as a core cell, ready to register in
// a design.
func Cells() ([]*core.Cell, error) {
	var out []*core.Cell
	for _, sc := range []*sticks.Cell{SRCell(), NAND(), OR4(),
		PipeFitting("PIPEM", geom.NM, 4), PipeFitting("PIPEP", geom.NP, 2)} {
		c, err := core.NewLeafFromSticks(sc)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	pads := PadFile()
	for _, sym := range pads.Symbols {
		c, err := core.NewLeafFromCIF(pads, sym)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// Install registers the whole library in a design.
func Install(d *core.Design) error {
	cells, err := Cells()
	if err != nil {
		return err
	}
	for _, c := range cells {
		if err := d.AddCell(c); err != nil {
			return err
		}
	}
	return nil
}

// Files renders the library as interchange files (name -> contents),
// the form "taken from a library of CIF cells" — usable as a shell
// file system. The library never changes, so it renders once per
// process; each call returns a fresh map of fresh copies, which the
// caller may write into without another caller seeing it.
func Files() (map[string][]byte, error) {
	files, err := rendered()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(files))
	for name, data := range files {
		out[name] = bytes.Clone(data)
	}
	return out, nil
}

// rendered is the one rendering of the library files behind Files.
var rendered = sync.OnceValues(func() (map[string][]byte, error) {
	out := map[string][]byte{}
	out["pads.cif"] = []byte(cif.String(PadFile()))
	for _, sc := range []*sticks.Cell{SRCell(), NAND(), OR4(),
		PipeFitting("PIPEM", geom.NM, 4), PipeFitting("PIPEP", geom.NP, 2)} {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		out[lowerName(sc.Name)+".sticks"] = []byte(sticks.String(sc))
	}
	return out, nil
})

func lowerName(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}
