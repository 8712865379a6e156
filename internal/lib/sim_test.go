package lib_test

// A switch-level simulator for extracted nMOS circuits, in the spirit
// of the simulators the Sticks format fed ("Sticks ... is also used as
// input to simulation"). It models ratioed nMOS logic: enhancement
// transistors conduct when their gate is high, depletion loads always
// conduct but pull up weakly, and a conducting path to ground
// overpowers any pullup.
//
// The tests below run truth tables on the library gates after
// extraction — closing the loop from symbolic layout through
// composition to electrical behaviour.

import (
	"fmt"
	"testing"

	"riot/internal/core"
	"riot/internal/extract"
	"riot/internal/lib"
	"riot/internal/sticks"
)

// Level is a node value.
type Level uint8

// The three node levels.
const (
	L0 Level = iota
	L1
	LX // unknown / undriven
)

// String renders the level as "0", "1" or "X".
func (l Level) String() string {
	switch l {
	case L0:
		return "0"
	case L1:
		return "1"
	default:
		return "X"
	}
}

// Simulator evaluates an extracted circuit.
type Simulator struct {
	ckt named
	vdd int
	gnd int
}

// named is an extracted circuit with its labels' name map.
type named struct {
	*extract.Circuit
	nets map[string]int
}

// Net returns a label's net and whether it resolved.
func (c named) Net(label string) (int, bool) {
	n, ok := c.nets[label]
	return n, ok
}

// SameNet reports whether two labels resolved to one net.
func (c named) SameNet(a, b string) bool {
	na, okA := c.nets[a]
	nb, okB := c.nets[b]
	return okA && okB && na == nb
}

// newSimulator builds a simulator; vddLabel and gndLabel name
// connectors on the supply rails (e.g. "PWRL" and "GNDL").
func newSimulator(ckt named, vddLabel, gndLabel string) (*Simulator, error) {
	vdd, ok := ckt.Net(vddLabel)
	if !ok {
		return nil, fmt.Errorf("sim: no net for %q", vddLabel)
	}
	gnd, ok := ckt.Net(gndLabel)
	if !ok {
		return nil, fmt.Errorf("sim: no net for %q", gndLabel)
	}
	if vdd == gnd {
		return nil, fmt.Errorf("sim: power and ground are shorted")
	}
	return &Simulator{ckt: ckt, vdd: vdd, gnd: gnd}, nil
}

// Eval computes steady-state node levels for the given input levels
// (keyed by connector label). It returns the level of every labelled
// connector.
func (s *Simulator) Eval(inputs map[string]Level) (map[string]Level, error) {
	fixed := map[int]Level{s.vdd: L1, s.gnd: L0}
	for name, lv := range inputs {
		n, ok := s.ckt.Net(name)
		if !ok {
			return nil, fmt.Errorf("sim: no net for input %q", name)
		}
		if prev, dup := fixed[n]; dup && prev != lv {
			return nil, fmt.Errorf("sim: input %q conflicts with another driver of the same net", name)
		}
		fixed[n] = lv
	}

	level := make([]Level, s.ckt.NetCount)
	for i := range level {
		level[i] = LX
	}
	for n, lv := range fixed {
		level[n] = lv
	}

	// relax to a fixpoint: conduction depends on gate levels, levels
	// depend on conduction
	for iter := 0; iter < s.ckt.NetCount+len(s.ckt.Transistors)+2; iter++ {
		enhOn := func(t extract.Transistor) bool {
			return t.Kind == sticks.Enhancement && level[t.Gate] == L1
		}
		anyOn := func(t extract.Transistor) bool {
			return t.Kind == sticks.Depletion || enhOn(t)
		}
		// strong 0: reachable from ground through ON enhancement
		// devices only — depletion loads are weak and cannot sink a
		// node to ground; externally driven nets block propagation
		strong0 := s.reach(s.gnd, enhOn, fixed)
		// weak 1: reachable from power through any conducting device
		weak1 := s.reach(s.vdd, anyOn, fixed)

		changed := false
		for n := 0; n < s.ckt.NetCount; n++ {
			want := level[n]
			if lv, isFixed := fixed[n]; isFixed {
				want = lv
			} else if strong0[n] {
				want = L0 // ground wins in ratioed nMOS
			} else if weak1[n] {
				want = L1
			} else {
				want = LX
			}
			if want != level[n] {
				level[n] = want
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	out := map[string]Level{}
	for name, n := range s.ckt.nets {
		out[name] = level[n]
	}
	return out, nil
}

// reach BFS-es the conduction graph from a source net. Externally
// driven (fixed) nets are marked reachable but not expanded through —
// a supply rail or an input pin clamps its own value rather than
// relaying someone else's.
func (s *Simulator) reach(src int, conducting func(extract.Transistor) bool, fixed map[int]Level) []bool {
	seen := make([]bool, s.ckt.NetCount)
	seen[src] = true
	queue := []int{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if _, isFixed := fixed[n]; isFixed && n != src {
			continue
		}
		for _, t := range s.ckt.Transistors {
			if !conducting(t) {
				continue
			}
			var other int
			switch n {
			case t.A:
				other = t.B
			case t.B:
				other = t.A
			default:
				continue
			}
			if !seen[other] {
				seen[other] = true
				queue = append(queue, other)
			}
		}
	}
	return seen
}

// TruthTable evaluates the circuit for every combination of the given
// inputs and returns the output levels in input-counting order (input
// 0 is the least significant bit).
func (s *Simulator) TruthTable(inputs []string, output string) ([]Level, error) {
	rows := 1 << len(inputs)
	out := make([]Level, rows)
	for v := 0; v < rows; v++ {
		vec := map[string]Level{}
		for i, name := range inputs {
			if v&(1<<i) != 0 {
				vec[name] = L1
			} else {
				vec[name] = L0
			}
		}
		res, err := s.Eval(vec)
		if err != nil {
			return nil, err
		}
		lv, ok := res[output]
		if !ok {
			return nil, fmt.Errorf("sim: no output %q", output)
		}
		out[v] = lv
	}
	return out, nil
}

func extractGate(t *testing.T, name string) named {
	t.Helper()
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		t.Fatal(err)
	}
	cell, ok := d.Cell(name)
	if !ok {
		t.Fatalf("no cell %s", name)
	}
	ckt, err := extract.FromCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	return named{ckt, ckt.NetOf(cell)}
}

// TestNANDTruthTable closes the loop: the symbolic NAND laid out "in
// REST" extracts to a transistor netlist whose switch-level behaviour
// is exactly NAND.
func TestNANDTruthTable(t *testing.T) {
	ckt := extractGate(t, "NAND")
	if len(ckt.Transistors) != 3 {
		t.Fatalf("transistors = %d, want 3", len(ckt.Transistors))
	}
	s, err := newSimulator(ckt, "PWRL", "GNDL")
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.TruthTable([]string{"A", "B"}, "OUT")
	if err != nil {
		t.Fatal(err)
	}
	want := []Level{L1, L1, L1, L0} // NAND: only A=1,B=1 gives 0
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %02b: OUT = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestOR4TruthTable: the four-input OR (NOR + inverter) behaves as OR
// on all sixteen input rows.
func TestOR4TruthTable(t *testing.T) {
	ckt := extractGate(t, "OR4")
	// 4 NOR pulldowns + NOR pullup + inverter pulldown + pullup
	if len(ckt.Transistors) != 7 {
		t.Fatalf("transistors = %d, want 7", len(ckt.Transistors))
	}
	s, err := newSimulator(ckt, "PWRL", "GNDL")
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.TruthTable([]string{"IN0", "IN1", "IN2", "IN3"}, "OUT")
	if err != nil {
		t.Fatal(err)
	}
	for v, lv := range got {
		want := L0
		if v != 0 {
			want = L1
		}
		if lv != want {
			t.Errorf("row %04b: OUT = %v, want %v", v, lv, want)
		}
	}
}

func TestRailsConnectAcross(t *testing.T) {
	// the NAND's left and right rail connectors are one net each
	ckt := extractGate(t, "NAND")
	if !ckt.SameNet("PWRL", "PWRR") {
		t.Error("power rail not continuous")
	}
	if !ckt.SameNet("GNDL", "GNDR") {
		t.Error("ground rail not continuous")
	}
	if ckt.SameNet("PWRL", "GNDL") {
		t.Error("power and ground shorted")
	}
	if ckt.SameNet("A", "B") {
		t.Error("inputs shorted")
	}
	if ckt.SameNet("A", "OUT") || ckt.SameNet("B", "OUT") {
		t.Error("input shorted to output")
	}
}

func TestSimulatorErrors(t *testing.T) {
	ckt := extractGate(t, "NAND")
	if _, err := newSimulator(ckt, "NOPE", "GNDL"); err == nil {
		t.Error("unknown vdd accepted")
	}
	if _, err := newSimulator(ckt, "PWRL", "PWRL"); err == nil {
		t.Error("vdd == gnd accepted")
	}
	s, _ := newSimulator(ckt, "PWRL", "GNDL")
	if _, err := s.Eval(map[string]Level{"NOPE": L1}); err == nil {
		t.Error("unknown input accepted")
	}
}

func TestUndrivenInputIsX(t *testing.T) {
	ckt := extractGate(t, "NAND")
	s, _ := newSimulator(ckt, "PWRL", "GNDL")
	res, err := s.Eval(map[string]Level{"A": L1}) // B undriven
	if err != nil {
		t.Fatal(err)
	}
	if res["B"] != LX {
		t.Errorf("undriven B = %v", res["B"])
	}
}

func TestLevelString(t *testing.T) {
	if L0.String() != "0" || L1.String() != "1" || LX.String() != "X" {
		t.Error("level names wrong")
	}
}
