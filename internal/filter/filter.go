// Package filter reproduces the paper's worked example (figures 7-10):
// "a four-bit sequential logical filter: a function defined on a series
// of inputs x as f_n = OR_{i=1..4} c_i x_{n-i} where the c_i constants
// are supplied from off-chip and all sums and products are Boolean."
//
// The floorplan (figure 7) stacks a shift-register row over a NAND row
// over an OR gate, with pads around the outside. The logic block is
// assembled twice, exactly as the paper does:
//
//   - Routed (figure 9a): the rows are connected with river-routing
//     channels;
//   - Stretched (figure 9b): the gates are stretched so the rows
//     connect by abutment, "eliminating the routing area ... the
//     important space savings is in the vertical direction since no
//     routing channels are needed to connect the NAND and OR gates."
//
// BuildChip completes figure 10 by placing the pad ring and routing the
// pads to the core "in pieces with Riot's routing command".
package filter

import (
	"fmt"

	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/rules"
)

const l = rules.Lambda

// Variant selects the figure-9 assembly style.
type Variant uint8

// The two assembly styles of figure 9.
const (
	Routed Variant = iota
	Stretched
)

func (v Variant) String() string {
	if v == Stretched {
		return "stretched"
	}
	return "routed"
}

// Stats reports the measurable properties the paper discusses.
type Stats struct {
	Variant       Variant
	LogicBox      geom.Rect // bounding box of the logic block (centimicrons)
	LogicArea     int       // lambda^2
	LogicHeight   int       // lambda
	RouteCells    int       // river-route cells created
	RouteTracks   int       // total jog tracks across all channels
	ChannelHeight int       // total routing-channel height, lambda
}

// srPitch is the shift-register cell pitch in lambda.
const srPitch = 20

// BuildLogic assembles the logic block of figure 9 in the given
// variant and returns the design, the logic cell and the stats. The
// design also contains every intermediate cell Riot created (route
// cells, stretched cells), as the cell menu would show.
func BuildLogic(variant Variant) (*core.Design, *core.Cell, *Stats, error) {
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		return nil, nil, nil, err
	}

	// The NAND row is a wrapper composition cell so the row can be
	// route-connected to the register array as a single from-instance
	// (Riot's one-to-many rule; "a many-to-many connection can still
	// be made by defining a cell which contains one of the sets").
	nrow := core.NewComposition("NROW")
	if err := d.AddCell(nrow); err != nil {
		return nil, nil, nil, err
	}
	ne, err := core.NewEditor(d, nrow)
	if err != nil {
		return nil, nil, nil, err
	}
	// The gates are placed flipped (MXR180) so their inputs face the
	// register taps above and their outputs face the OR gate below.
	var prev *core.Instance
	for i := 0; i < 4; i++ {
		ni, err := ne.CreateInstance("NAND", fmt.Sprintf("n%d", i),
			geom.MakeTransform(geom.MXR180, geom.Pt(srPitch*i*l, 20*l)), 1, 1, 0, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		if prev != nil {
			// chain the rails by abutment
			if err := ne.AddConnection(ni, "PWRL", prev, "PWRR"); err != nil {
				return nil, nil, nil, err
			}
			if err := ne.AddConnection(ni, "GNDL", prev, "GNDR"); err != nil {
				return nil, nil, nil, err
			}
			if warns, err := ne.Abut(false); err != nil {
				return nil, nil, nil, err
			} else if len(warns) > 0 {
				return nil, nil, nil, fmt.Errorf("filter: NAND row abut: %v", warns)
			}
		}
		prev = ni
	}

	logic := core.NewComposition("LOGIC")
	if err := d.AddCell(logic); err != nil {
		return nil, nil, nil, err
	}
	e, err := core.NewEditor(d, logic)
	if err != nil {
		return nil, nil, nil, err
	}

	// "The first step is to generate the shift register array. The
	// array elements abut, making the shift register chain connections
	// as well as power and ground connections."
	sr, err := e.CreateInstance("SRCELL", "sr",
		geom.MakeTransform(geom.R0, geom.Pt(0, 100*l)), 4, 1, 0, 0)
	if err != nil {
		return nil, nil, nil, err
	}

	st := &Stats{Variant: variant}

	switch variant {
	case Routed:
		// figure 9a: the NAND row routes up to the register taps
		nr, err := e.CreateInstance("NROW", "nr",
			geom.MakeTransform(geom.R0, geom.Pt(0, 50*l)), 1, 1, 0, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		for i := 0; i < 4; i++ {
			if err := e.AddConnection(nr, fmt.Sprintf("n%d.A", i), sr, fmt.Sprintf("TAP[%d]", i)); err != nil {
				return nil, nil, nil, err
			}
		}
		res, err := e.RouteConnect(core.RouteOptions{})
		if err != nil {
			return nil, nil, nil, err
		}
		if len(res.Warnings) > 0 {
			return nil, nil, nil, fmt.Errorf("filter: SR-NAND route: %v", res.Warnings)
		}
		st.RouteCells++
		st.RouteTracks += res.River.Tracks
		st.ChannelHeight += res.River.Height

		// "then routing is done to the OR gate"
		orr, err := e.CreateInstance("OR4", "orr",
			geom.MakeTransform(geom.MXR180, geom.Pt(0, 20*l)), 1, 1, 0, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		for i := 0; i < 4; i++ {
			if err := e.AddConnection(orr, fmt.Sprintf("IN%d", i), nr, fmt.Sprintf("n%d.OUT", i)); err != nil {
				return nil, nil, nil, err
			}
		}
		res, err = e.RouteConnect(core.RouteOptions{})
		if err != nil {
			return nil, nil, nil, err
		}
		if len(res.Warnings) > 0 {
			return nil, nil, nil, fmt.Errorf("filter: NAND-OR route: %v", res.Warnings)
		}
		st.RouteCells++
		st.RouteTracks += res.River.Tracks
		st.ChannelHeight += res.River.Height

		// bring the filter output out to the cell edge so the chip
		// level can route a pad to it
		if _, err := e.BringOut(orr, []string{"OUT"}, geom.SideRight); err != nil {
			return nil, nil, nil, err
		}

	case Stretched:
		// figure 9b: "the designer may save area by stretching the
		// gates, eliminating the routing area". Each NAND is placed
		// under its tap and stretched so its A input lands exactly on
		// the tap, then abuts the register row.
		var nands [4]*core.Instance
		for i := 0; i < 4; i++ {
			ni, err := e.CreateInstance("NAND", fmt.Sprintf("n%d", i),
				geom.MakeTransform(geom.MXR180, geom.Pt(srPitch*i*l, 60*l)), 1, 1, 0, 0)
			if err != nil {
				return nil, nil, nil, err
			}
			if err := e.AddConnection(ni, "A", sr, fmt.Sprintf("TAP[%d]", i)); err != nil {
				return nil, nil, nil, err
			}
			sres, err := e.StretchConnect()
			if err != nil {
				return nil, nil, nil, err
			}
			if len(sres.Warnings) > 0 {
				return nil, nil, nil, fmt.Errorf("filter: NAND %d stretch: %v", i, sres.Warnings)
			}
			nands[i] = ni
		}
		// the OR gate stretches so its inputs meet the NAND outputs,
		// then abuts the NAND row — no channel at all
		orr, err := e.CreateInstance("OR4", "orr",
			geom.MakeTransform(geom.MXR180, geom.Pt(0, 20*l)), 1, 1, 0, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		for i := 0; i < 4; i++ {
			if err := e.AddConnection(orr, fmt.Sprintf("IN%d", i), nands[i], "OUT"); err != nil {
				return nil, nil, nil, err
			}
		}
		sres, err := e.StretchConnect()
		if err != nil {
			return nil, nil, nil, err
		}
		if len(sres.Warnings) > 0 {
			return nil, nil, nil, fmt.Errorf("filter: OR stretch: %v", sres.Warnings)
		}
		if _, err := e.BringOut(orr, []string{"OUT"}, geom.SideRight); err != nil {
			return nil, nil, nil, err
		}
	}

	box := logic.BBox()
	st.LogicBox = box
	st.LogicHeight = box.H() / l
	st.LogicArea = (box.W() / l) * (box.H() / l)
	return d, logic, st, nil
}

// ChipStats extends Stats with the figure-10 chip-level numbers.
type ChipStats struct {
	Logic    *Stats
	ChipBox  geom.Rect
	ChipArea int // lambda^2
	PadCount int
	Routes   int // pad routes made
}

// BuildChip completes the figure-10 chip: the logic core with input,
// output, constant and clock pads routed in. Pads are CIF cells, so
// every pad connection is made by routing ("the pads cannot be
// stretched by Riot and all connections to them will have to be made
// by routing").
func BuildChip(variant Variant) (*core.Design, *core.Cell, *ChipStats, error) {
	d, _, lst, err := BuildLogic(variant)
	if err != nil {
		return nil, nil, nil, err
	}
	chip := core.NewComposition("CHIP")
	if err := d.AddCell(chip); err != nil {
		return nil, nil, nil, err
	}
	e, err := core.NewEditor(d, chip)
	if err != nil {
		return nil, nil, nil, err
	}

	logicInst, err := e.CreateInstance("LOGIC", "core",
		geom.MakeTransform(geom.R0, geom.Pt(0, 0)), 1, 1, 0, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	lb := logicInst.BBox()
	cst := &ChipStats{Logic: lst}

	// x-input pad on the left, data flows into sr.IN[0]; the pad's P
	// connector is on its bottom edge, so R90 turns it to face right.
	inName, err := findConn(logicInst, geom.SideLeft, geom.NP)
	if err != nil {
		return nil, nil, nil, err
	}
	xpad, err := e.CreateInstance("PADIN", "xpad",
		geom.MakeTransform(geom.R90, geom.Pt(lb.Min.X-90*l, lb.Min.Y)), 1, 1, 0, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := routePad(e, cst, xpad, logicInst, inName); err != nil {
		return nil, nil, nil, err
	}
	cst.PadCount++

	// clock pads on top feeding the register clocks
	for i, clk := range []string{"PHI1[0]", "PHI2[3]"} {
		pad, err := e.CreateInstance("PADIN", fmt.Sprintf("phipad%d", i+1),
			geom.MakeTransform(geom.R0, geom.Pt(lb.Min.X+(30+70*i)*l, lb.Max.Y+90*l)), 1, 1, 0, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := routePad(e, cst, pad, logicInst, "sr."+clk); err != nil {
			return nil, nil, nil, err
		}
		cst.PadCount++
	}

	// output pad on the right carrying f
	outName, err := findConn(logicInst, geom.SideRight, geom.NP)
	if err != nil {
		return nil, nil, nil, err
	}
	fpad, err := e.CreateInstance("PADOUT", "fpad",
		geom.MakeTransform(geom.R270, geom.Pt(lb.Max.X+90*l, lb.Min.Y+60*l)), 1, 1, 0, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := routePad(e, cst, fpad, logicInst, outName); err != nil {
		return nil, nil, nil, err
	}
	cst.PadCount++

	box := chip.BBox()
	cst.ChipBox = box
	cst.ChipArea = (box.W() / l) * (box.H() / l)
	return d, chip, cst, nil
}

// routePad connects one pad connector to one core connector by
// routing.
func routePad(e *core.Editor, cst *ChipStats, pad *core.Instance, logic *core.Instance, conn string) error {
	if err := e.AddConnection(pad, "P", logic, conn); err != nil {
		return err
	}
	res, err := e.RouteConnect(core.RouteOptions{})
	if err != nil {
		return err
	}
	if len(res.Warnings) > 0 {
		return fmt.Errorf("filter: pad route to %s: %v", conn, res.Warnings)
	}
	cst.Routes++
	return nil
}

// findConn locates an exported logic connector on the given side and
// layer (the data input and output whose generated names depend on the
// variant's route/stretch history). Among candidates it picks the one
// lowest along the edge, which selects the OR output (bottom of the
// core) rather than the register-chain tail (top).
func findConn(in *core.Instance, side geom.Side, layer geom.Layer) (string, error) {
	best := ""
	bestCoord := 0
	for _, ic := range in.Connectors() {
		if ic.Side != side || ic.Layer != layer {
			continue
		}
		coord := ic.At.Y
		if side.Vertical() {
			coord = ic.At.X
		}
		if best == "" || coord < bestCoord {
			best, bestCoord = ic.Name, coord
		}
	}
	if best == "" {
		return "", fmt.Errorf("filter: no %v connector on %v side of %s", layer, side, in.Name)
	}
	return best, nil
}
