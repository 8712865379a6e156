// The edit-trace oracle: a seeded generator of riot command lines run
// through a riot.Session, the path the shell, CLI and server share, and
// four edits the shell has no command for (a move through a second
// editor on ROW, an in-place leaf mutation, a Declare, arming faults).
// Every generation must equal the scratch flat run, and a trace of
// shell commands only must replay from its journal to the same design
// and verdicts. A failing trace prints as a riot -c script.
package riot_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"riot"
	"riot/internal/core"
	"riot/internal/faultinject"
	"riot/internal/geom"
	"riot/internal/lvs"
	"riot/internal/obs"
	"riot/internal/rules"
	"riot/internal/sticks"
	"riot/internal/verify"
)

// traceSticks (trace.sticks) holds NARROW, whose one wire is too
// narrow, so each placement has width residues of its own, and PROBE,
// whose X label resolves only through a neighbour's T.
const traceSticks = `STICKS NARROW
BBOX 0 0 10 10
WIRE NM 2 0 5 10 5
END
STICKS PROBE
BBOX 0 0 20 20
WIRE NM 4 0 10 20 10
WIRE NP 2 10 15 10 20
CONNECTOR L 0 10 NM 4 left
CONNECTOR R 20 10 NM 4 right
CONNECTOR T 10 20 NP 2 top
CONNECTOR X 10 0 NP 2 bottom
END
`

// traceSetup reads every cell file, builds ROW and opens TOP. The two
// NARROWs overlap by 1λ, so their wire is wide enough where both lie
// and each residue must lose the pair's window.
const (
	traceSetup = "READ srcell.sticks; READ nand.sticks; READ or4.sticks; READ pipem.sticks; READ pipep.sticks; READ pads.cif; READ trace.sticks; " +
		"EDIT ROW; CREATE SRCELL r0; CREATE SRCELL r1 AT 20 0; CREATE NAND r2 AT 40 0; ENDEDIT; EDIT TOP"
	baseTop = "CREATE SRCELL c0; CREATE SRCELL c1 AT 20 0; CREATE SRCELL c2 AT 40 0; CREATE SRCELL c3 AT 0 24; " +
		"CREATE SRCELL c4 AT 20 24; CREATE SRCELL c5 AT 40 24; CREATE ROW row AT 0 48; CREATE SRCELL arr AT 100 0 ARRAY 2 2; " +
		"CREATE NARROW n0 AT -20 0; CREATE NARROW n1 AT -25 1; CREATE PROBE p0 AT 200 0; CREATE PROBE p1 AT 200 20; " +
		"CREATE PIPEM pm AT 160 0; CREATE SRCELL island AT 400 400"
)

// A variant is a trace's starting top and what its traces may do:
// out-of-band edits (oob; such a trace skips the replay check), a
// warmed on-disk cache whose first read is corrupted, or CertPend on
// NAND and TemplatePoison on occurrence 4 armed throughout.
type variant struct {
	name, top         string
	oob, cache, armed bool
}

// trace is one generated session and what it has run.
type trace struct {
	t      testing.TB
	name   string // the variant and the seed
	v      variant
	s      *riot.Session
	r      func(n int) int // the generator's source
	lines  []string        // the riot -c script so far
	snap   *core.Snapshot  // the last generation checked
	oob    bool
	faults *faultinject.Set
	orig   *sticks.Cell // SRCELL's own sticks, while it is mutated
	gen    int          // generations checked
	named  int          // named CREATEs
	cov    map[string]int
}

func newSession(t testing.TB) *riot.Session {
	s, err := riot.NewSession(nil)
	must(t, err)
	s.AddFile("trace.sticks", []byte(traceSticks))
	s.Shell.Verifier.SetLog(obs.Discard)
	return s
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// runTrace runs steps generated edits of variant v from source r,
// counting into cov what ran.
func runTrace(t testing.TB, name string, v variant, r func(int) int, steps int, cov map[string]int) {
	tr := &trace{t: t, name: name, v: v, s: newSession(t), r: r, faults: faultinject.New(), cov: cov}
	if v.cache {
		dir, warm := t.TempDir(), newSession(t)
		must(t, warm.AttachCache(dir))
		must(t, warm.ExecAll(strings.Split(traceSetup+"; "+v.top+"; DRC", "; ")...))
		must(t, tr.s.AttachCache(dir))
		tr.faults.EnableN(faultinject.StoreCorrupt, "", 1)
	}
	if v.armed {
		tr.faults.Enable(faultinject.CertPend, "NAND")
		tr.faults.Enable(faultinject.TemplatePoison, "4")
	}
	tr.s.Shell.InjectFaults(tr.faults)
	tr.lines = strings.Split(traceSetup+"; "+v.top, "; ")
	must(t, tr.s.ExecAll(tr.lines...))
	tr.check("setup")
	for i := 0; i < steps; i++ {
		tr.step()
	}
	hs := tr.s.Shell.Verifier.HierStats()
	cov["retained"] += hs.Retained
	cov["fast"] += hs.FastRuns
	cov["disk hits"] += hs.CertDiskHits
	if st := tr.s.Shell.Cache; st != nil {
		cov["corrupt"] += st.Stats().Corrupt
	}
	if !tr.oob {
		tr.replay()
	}
}

// inst picks an instance of TOP, half the time the last one (often
// the newest, a route or a bring-out), or nil when TOP is empty.
func (tr *trace) inst() *core.Instance {
	ins := tr.s.Editor().Cell.Instances
	if len(ins) == 0 {
		return nil
	}
	if tr.r(2) == 0 {
		return ins[len(ins)-1]
	}
	return ins[tr.r(len(ins))]
}

var nudges = [4]geom.Point{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}}

// step makes one generated edit: one to four command lines, or an
// out-of-band edit.
func (tr *trace) step() {
	ed, in, n := tr.s.Editor(), tr.inst(), 10
	if tr.v.oob {
		n = 14
	}
	op := tr.r(n)
	if in == nil {
		op = 0
	}
	switch op {
	case 0:
		cells := tr.s.Design().CellNames()
		line := "CREATE " + cells[tr.r(len(cells))]
		if tr.r(3) > 0 {
			tr.named++
			line += fmt.Sprintf(" x%d", tr.named)
		}
		line += fmt.Sprintf(" AT %d %d", 20*tr.r(9)-20, 24*tr.r(5)+tr.r(3)-1)
		if tr.r(4) == 0 {
			line += " ORIENT " + geom.Orient(tr.r(8)).String()
		}
		if tr.r(4) == 0 {
			line += fmt.Sprintf(" ARRAY %d %d", 1+tr.r(3), 1+tr.r(3))
		}
		tr.exec("CREATE", line)
	case 1:
		d := nudges[tr.r(4)]
		tr.exec("MOVE", fmt.Sprintf("MOVE %s %d %d", in.Name, d.X, d.Y))
	case 2:
		tr.exec("MOVE far", fmt.Sprintf("MOVE %s 0 %d", in.Name, 300-600*tr.r(2)))
	case 3:
		tr.exec("ORIENT", "ORIENT "+in.Name+" "+geom.Orient(tr.r(8)).String())
	case 4: // DELETE, then CREATE it again in place, last in the list
		l := rules.Lambda
		again := fmt.Sprintf("CREATE %s %s AT %d %d ORIENT %v ARRAY %d %d %d %d", in.Cell.Name, in.Name,
			in.Tr.D.X/l, in.Tr.D.Y/l, in.Tr.O, in.Nx, in.Ny, in.Sx/l, in.Sy/l)
		if tr.exec("DELETE", "DELETE "+in.Name) {
			tr.exec("CREATE", again)
		}
	case 5:
		tr.exec("REPLICATE", fmt.Sprintf("REPLICATE %s %d %d", in.Name, 1+tr.r(3), 1+tr.r(3)))
	case 6, 7: // links from in, then usually the command that makes them
		if len(ed.Pending) > 0 && tr.r(2) == 0 {
			tr.exec("CLEAR", "CLEAR")
		}
		to := tr.inst()
		if to == in {
			to = ed.Cell.Instances[tr.r(len(ed.Cell.Instances))]
		}
		if tr.r(3) == 0 {
			tr.exec("BUS", "BUS "+in.Name+" "+to.Name)
		} else {
			tr.connect(in, to)
		}
		if tr.r(4) > 0 {
			tr.command()
		}
	case 8:
		tr.command()
	case 9:
		if cs := in.Connectors(); len(cs) > 0 {
			c := cs[tr.r(len(cs))]
			tr.exec("BRINGOUT", fmt.Sprintf("BRINGOUT %s %v %s", in.Name, c.Side, c.Name))
		}
	case 10: // a move inside ROW through an editor of its own
		row, _ := tr.s.Design().Cell("ROW")
		sub, _ := core.NewEditor(tr.s.Design(), row)
		x := row.Instances[tr.r(len(row.Instances))]
		d := nudges[tr.r(4)]
		sub.MoveInstance(x, geom.Pt(d.X*rules.Lambda, d.Y*rules.Lambda))
		tr.outOfBand("nested", fmt.Sprintf("ROW: MOVE %s %d %d", x.Name, d.X, d.Y))
	case 11: // SRCELL loses its first wire in place, or gets it back
		leaf, _ := tr.s.Design().Cell("SRCELL")
		if tr.orig == nil {
			sc := *leaf.Sticks
			tr.orig, sc.Wires = leaf.Sticks, sc.Wires[1:]
			leaf.Sticks = &sc
		} else {
			leaf.Sticks, tr.orig = tr.orig, nil
		}
		leaf.MarkMutated()
		ed.Invalidate()
		tr.outOfBand("mutate", fmt.Sprintf("SRCELL mutated in place: %v", tr.orig != nil))
	case 12: // declare a link the layout need not make
		from, ok := ed.Instance("island")
		if !ok {
			from = in
		}
		fc, tc := from.Connectors(), in.Connectors()
		if len(fc) > 0 && len(tc) > 0 {
			a, b := fc[tr.r(len(fc))].Name, tc[tr.r(len(tc))].Name
			if ed.Declare(from, a, in, b) == nil {
				tr.outOfBand("declare", fmt.Sprintf("DECLARE %s.%s %s.%s", from.Name, a, in.Name, b))
			}
		}
	case 13: // arm a fault point for one to three hits
		p := []faultinject.Point{faultinject.CertPend, faultinject.TemplatePoison, faultinject.ComposeBudget,
			faultinject.StoreCorrupt, faultinject.CertDecode}[tr.r(5)]
		key := ""
		if p == faultinject.TemplatePoison {
			key = strconv.Itoa(tr.r(8))
		}
		tr.faults.EnableN(p, key, 1+tr.r(3))
		tr.cov["faults"]++
		tr.lines = append(tr.lines, fmt.Sprintf("# armed %s %q", p, key))
	}
}

// connect links up to two of a's connectors on one side to b's
// connectors of their layers on the opposed side.
func (tr *trace) connect(a, b *core.Instance) {
	var pairs [][2]core.InstConn
	for _, x := range a.Connectors() {
		for _, y := range b.Connectors() {
			if y.Side == x.Side.Opposite() && y.Layer == x.Layer {
				pairs = append(pairs, [2]core.InstConn{x, y})
			}
		}
	}
	if len(pairs) == 0 {
		return
	}
	side, used := pairs[tr.r(len(pairs))][0].Side, map[string]bool{}
	for _, p := range pairs {
		if x, y := p[0].Name, "."+p[1].Name; p[0].Side == side && !used[x] && !used[y] && len(used) < 4 {
			used[x], used[y] = true, true
			tr.exec("CONNECT", fmt.Sprintf("CONNECT %s.%s %s.%s", a.Name, x, b.Name, p[1].Name))
		}
	}
}

func (tr *trace) command() {
	cmd := [...]string{"ABUT", "ABUT OVERLAP", "ROUTE", "ROUTE NOMOVE", "STRETCH"}[tr.r(5)]
	tr.exec(cmd, cmd)
}

// exec runs one command line, counts a success under kind and checks
// the generation it made.
func (tr *trace) exec(kind, line string) bool {
	if err := tr.s.Exec(line); err != nil {
		tr.lines = append(tr.lines, "# failed: "+line)
		return false
	}
	tr.lines = append(tr.lines, line)
	tr.cov[kind]++
	tr.check(line)
	return true
}

func (tr *trace) outOfBand(kind, what string) {
	tr.oob = true
	tr.lines = append(tr.lines, "# "+what)
	tr.cov[kind]++
	tr.check(what)
}

func (tr *trace) fail(what, format string, args ...any) {
	tr.t.Helper()
	tr.t.Fatalf("%s, generation %d (%s): %s\nreplay it: riot -c '%s'", tr.name, tr.gen, what,
		fmt.Sprintf(format, args...), strings.Join(tr.lines, "; "))
}

// check compares the session's verdicts on a new generation of TOP
// with the scratch flat run's.
func (tr *trace) check(what string) {
	ed := tr.s.Editor()
	if ed == nil || ed.Cell.Name != "TOP" || ed.Snapshot() == tr.snap {
		return
	}
	snap := ed.Snapshot()
	tr.snap, tr.gen = snap, tr.gen+1
	// the zero Verifier is the scratch flat run
	scratch := &verify.Verifier{}
	rep, err := tr.s.VerifyCell("TOP")
	want, werr := scratch.VerifySnapshot(snap)
	if err != nil || werr != nil {
		tr.fail(what, "verify: %v; scratch: %v", err, werr)
	}
	if d := tr.s.Shell.Verifier.HierDeclineInfo(); d != nil {
		tr.cov["decline "+string(d.Cond)]++
	}
	if (rep.CircuitErr == nil) != (want.CircuitErr == nil) || want.CircuitErr == nil && !reflect.DeepEqual(rep.Circuit, want.Circuit) ||
		!reflect.DeepEqual(rep.Violations, want.Violations) || rep.Gen != snap.Gen {
		tr.fail(what, "extract+DRC differs from the scratch flat run: %v, %d violations; scratch %v, %d",
			rep.CircuitErr, len(rep.Violations), want.CircuitErr, len(want.Violations))
	}
	got, err := tr.s.CheckLVS("TOP")
	again, _ := tr.s.CheckLVS("TOP")
	flat, ferr := lvs.CheckEditorFlat(ed)
	fresh, frerr := new(lvs.Incremental).CheckSnapshot(snap, scratch)
	switch {
	case (err == nil) != (ferr == nil) || (err == nil) != (frerr == nil):
		tr.fail(what, "LVS errors %v; flat %v; fresh %v", err, ferr, frerr)
	case err != nil:
	case again != got:
		tr.fail(what, "an unchanged generation's LVS did not return the cached verdict")
	case got.Clean != flat.Clean || !reflect.DeepEqual(got.Mismatches, flat.Mismatches):
		tr.fail(what, "LVS differs from the flat comparison:\ngot:  %v\nflat: %v", got.Mismatches, flat.Mismatches)
	case !reflect.DeepEqual(got, fresh):
		tr.fail(what, "LVS differs from a fresh Incremental's:\ngot:   %+v\nfresh: %+v", got, fresh)
	case got.Cert.Fallback:
		tr.cov["witness fallback"]++
	}
	var ref lvs.Reference
	for _, decl := range [][]core.Connection{nil, snap.Declared} {
		nl, err := tr.s.Shell.LVS.Ref.Netlist(snap.Cell, decl)
		want, werr := ref.Netlist(snap.Cell, decl)
		if (err == nil) != (werr == nil) || !reflect.DeepEqual(nl, want) {
			tr.fail(what, "the session's reference netlist (%d declared) differs from a fresh one (%v, %v)", len(decl), err, werr)
		}
	}
}

// replay saves the journal and replays it into a fresh session, which
// must rebuild the same design (in composition format), pending and
// declared links, and verdicts.
func (tr *trace) replay() {
	must(tr.t, tr.s.Exec("SAVEJOURNAL j"))
	again := newSession(tr.t)
	j, _ := tr.s.File("j")
	again.AddFile("j", j)
	if err := again.Exec("REPLAY j"); err != nil {
		tr.fail("replay", "%v", err)
	}
	var state [2]string
	for k, s := range []*riot.Session{tr.s, again} {
		must(tr.t, s.Exec("WRITE state.comp"))
		design, _ := s.File("state.comp")
		rep, err := s.VerifyCell("TOP")
		must(tr.t, err)
		res, err := s.CheckLVS("TOP")
		ed := s.Editor()
		state[k] = fmt.Sprintf("%s%v\n%v\n%v %v\n%+v %v", design, ed.Pending, ed.Declared, rep.Violations, rep.CircuitErr, res, err)
	}
	if state[0] != state[1] {
		tr.fail("replay", "the journal rebuilt another session:\n%s\nreplayed:\n%s", state[0], state[1])
	}
	tr.cov["replay"]++
}

// TestEditTrace runs the oracle over fixed seeds of every variant and
// requires every command, out-of-band edit and decline condition to
// have run, and every cache and store path the checks watch to have
// served.
func TestEditTrace(t *testing.T) {
	cov := map[string]int{}
	for _, c := range []struct {
		v            variant
		seeds, steps int
	}{
		{variant{name: "shell", top: baseTop}, 5, 32},
		{variant{name: "edit", top: baseTop, oob: true}, 5, 32},
		{variant{name: "array", top: "CREATE SRCELL a ARRAY 16 14", oob: true}, 1, 15},
		{variant{name: "cache", top: baseTop, oob: true, cache: true}, 1, 40},
	} {
		for seed := int64(1); seed <= int64(c.seeds); seed++ {
			runTrace(t, fmt.Sprintf("%s seed %d", c.v.name, seed), c.v, rand.New(rand.NewSource(seed)).Intn, c.steps, cov)
		}
	}
	for _, kind := range []string{"CREATE", "MOVE", "MOVE far", "ORIENT", "DELETE", "REPLICATE", "CONNECT", "BUS",
		"CLEAR", "ABUT", "ABUT OVERLAP", "ROUTE", "ROUTE NOMOVE", "STRETCH", "BRINGOUT", "nested", "mutate", "declare",
		"faults", "decline poison", "decline pend", "decline compose-budget", "retained", "fast", "disk hits", "corrupt",
		"witness fallback", "replay"} {
		if cov[kind] == 0 {
			t.Errorf("no trace ran %s", kind)
		}
	}
	t.Log(cov)
}

// TestEditTraceFaults is the fault matrix under edits: pend and poison
// faults armed throughout, so most generations decline, and every one
// must still equal the scratch flat run.
func TestEditTraceFaults(t *testing.T) {
	cov := map[string]int{}
	for seed := int64(1); seed <= 2; seed++ {
		runTrace(t, fmt.Sprintf("faults seed %d", seed), variant{top: baseTop, oob: true, armed: true}, rand.New(rand.NewSource(seed)).Intn, 30, cov)
	}
	if cov["decline pend"] == 0 || cov["decline poison"] == 0 {
		t.Fatalf("the armed faults never declined a run: %v", cov)
	}
}

// FuzzEditTrace decodes its input into the same generator's choices,
// one byte each.
func FuzzEditTrace(f *testing.F) {
	f.Add([]byte("abut, route, stretch"))
	f.Fuzz(func(t *testing.T, data []byte) {
		steps := min(len(data)/2, 40)
		r := func(n int) (v int) {
			if len(data) > 0 {
				v, data = int(data[0])%n, data[1:]
			}
			return v
		}
		runTrace(t, "fuzz", variant{top: baseTop, oob: true}, r, steps, map[string]int{})
	})
}
