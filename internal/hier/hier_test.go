package hier

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"riot/internal/castore"
	"riot/internal/core"
	"riot/internal/drc"
	"riot/internal/extract"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/obs"
	"riot/internal/rules"
)

// newDesign installs the library and returns an empty composition top
// under its design.
func newDesign(t testing.TB, name string) (*core.Design, *core.Cell) {
	t.Helper()
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		t.Fatal(err)
	}
	top := core.NewComposition(name)
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	return d, top
}

// srArray builds one SRCELL instance replicated nx x ny at abutting
// pitch — the paper's shift-register plane and the fast path's shape.
func srArray(t testing.TB, nx, ny int, o geom.Orient) *core.Cell {
	t.Helper()
	d, top := newDesign(t, fmt.Sprintf("TOP%dX%d", nx, ny))
	sr, _ := d.Cell("SRCELL")
	in := core.NewInstance("a", sr, geom.MakeTransform(o, geom.Pt(0, 0)))
	in.Nx, in.Ny = nx, ny
	in.Sx, in.Sy = 20*rules.Lambda, 24*rules.Lambda
	top.Instances = append(top.Instances, in)
	return top
}

// flatVerdict runs the flat reference engines.
func flatVerdict(t testing.TB, c *core.Cell) (*extract.Circuit, error, []drc.Violation) {
	t.Helper()
	ckt, cktErr := extract.FromCell(c)
	vs, err := drc.CheckCell(c)
	if err != nil {
		t.Fatal(err)
	}
	return ckt, cktErr, vs
}

// mustMatch runs the engine on c and requires verdict identity with
// the flat engines: equal violation sets, and (when the flat extract
// succeeds) an identical materialized circuit. Returns whether the
// engine accepted.
func mustMatch(t *testing.T, e *Engine, c *core.Cell, label string) bool {
	t.Helper()
	res, ok := e.Verify(c)
	wantCkt, wantCktErr, wantVs := flatVerdict(t, c)
	if !ok {
		return false
	}
	if wantCktErr != nil {
		t.Fatalf("%s: engine accepted but flat extraction errors: %v", label, wantCktErr)
	}
	if !reflect.DeepEqual(res.Violations, wantVs) {
		t.Fatalf("%s: hier violations differ from flat\nhier: %v\nflat: %v", label, res.Violations, wantVs)
	}
	if res.NetCount != wantCkt.NetCount {
		t.Fatalf("%s: hier NetCount %d, flat %d", label, res.NetCount, wantCkt.NetCount)
	}
	if res.DeviceCount != len(wantCkt.Transistors) {
		t.Fatalf("%s: hier DeviceCount %d, flat %d", label, res.DeviceCount, len(wantCkt.Transistors))
	}
	ckt, err := res.Circuit()
	if err != nil {
		t.Fatalf("%s: materialize: %v", label, err)
	}
	if !reflect.DeepEqual(ckt, wantCkt) {
		t.Fatalf("%s: hier circuit differs from flat\nhier: %+v\nflat: %+v", label, ckt, wantCkt)
	}
	return true
}

// TestHierArrayMatchesFlat pins verdict identity on uniform arrays
// across the general path (below the fast threshold), the fast path
// (above it), and a rotated array.
func TestHierArrayMatchesFlat(t *testing.T) {
	e := New()
	for _, s := range []struct {
		nx, ny int
		o      geom.Orient
	}{
		{1, 1, geom.R0}, {2, 2, geom.R0}, {3, 5, geom.R0}, {8, 8, geom.R0},
		{4, 4, geom.R90}, {3, 3, geom.MX},
		{16, 16, geom.R0}, {16, 14, geom.R90},
	} {
		c := srArray(t, s.nx, s.ny, s.o)
		if !mustMatch(t, e, c, c.Name) {
			t.Fatalf("%dx%d o=%d: engine declined a plain array", s.nx, s.ny, s.o)
		}
	}
	st := e.Stats()
	if st.FastRuns != 2 {
		t.Errorf("fast runs = %d, want 2 (the 16x16 and 16x14 arrays)", st.FastRuns)
	}
	if st.CertBuilt == 0 || st.CertMemoHits == 0 {
		t.Errorf("certificate reuse missing: %+v", st)
	}
}

// TestHierFastPathSkipsPlacements pins the fast path's whole point: a
// large array's verdict must not walk the placements. The engine
// templates and samples bounded lattices, so template builds must not
// scale with the array.
func TestHierFastPathSkipsPlacements(t *testing.T) {
	e := New()
	res, ok := e.Verify(srArray(t, 64, 64, geom.R0))
	if !ok {
		t.Fatal("engine declined the 64x64 array")
	}
	if e.Stats().FastRuns != 1 {
		t.Fatalf("64x64 array did not take the fast path: %+v", e.Stats())
	}
	if res.Violations != nil {
		t.Fatalf("64x64 array reported violations: %v", res.Violations)
	}
	small, ok := e.Verify(srArray(t, 16, 16, geom.R0))
	if !ok || e.Stats().FastRuns != 2 {
		t.Fatalf("16x16 follow-up: ok=%v stats=%+v", ok, e.Stats())
	}
	// both fast verdicts come from the same bilinear form; check the
	// 64x64 prediction against the flat count of the smaller array by
	// ratio of the form, indirectly: the fit is verified inside fast()
	if res.NetCount <= small.NetCount {
		t.Fatalf("64x64 NetCount %d not above 16x16's %d", res.NetCount, small.NetCount)
	}
}

// TestHierFastPathExact pins that a fast-path verdict is reported as
// is: its violations equal the flat checker's without any general
// composition, and materializing its circuit composes connectivity
// only — no width, spacing or surround stage runs — yet yields the flat
// extractor's circuit exactly. A squeezed pitch, where the fast path
// declines and the general path decides, must agree too.
func TestHierFastPathExact(t *testing.T) {
	squeezed := srArray(t, 14, 14, geom.R0)
	squeezed.Instances[0].Sx, squeezed.Instances[0].Sy = 14*rules.Lambda, 22*rules.Lambda
	for _, tc := range []struct {
		c    *core.Cell
		fast bool
	}{
		{srArray(t, 14, 14, geom.R0), true},
		{srArray(t, 16, 14, geom.R0), true},
		{srArray(t, 64, 64, geom.R0), true},
		{srArray(t, 16, 14, geom.R90), true},
		{srArray(t, 14, 14, geom.R180), true},
		{squeezed, false},
	} {
		label := fmt.Sprintf("%s o=%d pitch %d,%d", tc.c.Name, tc.c.Instances[0].Tr.O, tc.c.Instances[0].Sx, tc.c.Instances[0].Sy)
		e := New()
		res, ok := e.Verify(tc.c)
		if !ok {
			t.Fatalf("%s: engine declined", label)
		}
		if got := e.Stats().FastRuns == 1; got != tc.fast {
			t.Fatalf("%s: fast path taken = %v, want %v", label, got, tc.fast)
		}
		wantCkt, wantErr, wantVs := flatVerdict(t, tc.c)
		if wantErr != nil {
			t.Fatalf("%s: flat extraction: %v", label, wantErr)
		}
		if !reflect.DeepEqual(res.Violations, wantVs) {
			t.Fatalf("%s: violations differ from flat\nhier: %v\nflat: %v", label, res.Violations, wantVs)
		}
		tr := obs.NewTrace()
		e.Trace = tr
		ckt, err := res.Circuit()
		e.Trace = nil
		if err != nil {
			t.Fatalf("%s: materialize: %v", label, err)
		}
		if !reflect.DeepEqual(ckt, wantCkt) {
			t.Fatalf("%s: materialized circuit differs from flat", label)
		}
		if res.NetCount != ckt.NetCount || !reflect.DeepEqual(res.Violations, wantVs) {
			t.Fatalf("%s: materializing changed the verdict", label)
		}
		composed := false
		for _, sp := range tr.Roots() {
			composed = composed || sp.Find("compose") != nil || sp.Name() == "compose"
			for _, name := range []string{"width", "spacing", "surround"} {
				if sp.Find(name) != nil {
					t.Fatalf("%s: Circuit ran the %s check", label, name)
				}
			}
		}
		if composed != tc.fast {
			t.Fatalf("%s: Circuit composed = %v, want %v (only fast verdicts compose late)", label, composed, tc.fast)
		}
	}
}

// TestHierDeepOverlapMatchesFlat squeezes the array pitch so copies
// overlap well past the abutment seam depth — cross-copy width merges,
// shared rails, and (at the tightest pitches) real fragmentation
// poison. The engine must either decline or agree with flat exactly.
func TestHierDeepOverlapMatchesFlat(t *testing.T) {
	e := New()
	accepted := 0
	for _, squeeze := range []int{2, 4, 6, 8, 12} {
		d, top := newDesign(t, fmt.Sprintf("DEEP%d", squeeze))
		sr, _ := d.Cell("SRCELL")
		in := core.NewInstance("a", sr, geom.Identity)
		in.Nx, in.Ny = 3, 3
		in.Sx = (20 - squeeze) * rules.Lambda
		in.Sy = (24 - squeeze) * rules.Lambda
		top.Instances = append(top.Instances, in)
		if mustMatch(t, e, top, top.Name) {
			accepted++
		}
	}
	if accepted == 0 {
		t.Error("engine declined every overlapped array; the general path should handle shallow overlaps")
	}
}

// editTrace replays one trial of the editing-trace protocol: a 3x3
// grid of individually placed SRCELLs followed by six random editor
// operations (moves by lambda-grid offsets, NAND creates, deletes,
// rotations). The randomized differential below pins its acceptance
// threshold to this exact op stream (4 of its 12 seed-1982 trials
// poison and decline), so changing the stream means re-measuring it.
func editTrace(t testing.TB, rng *rand.Rand, trial int) *core.Cell {
	t.Helper()
	d, top := newDesign(t, fmt.Sprintf("RAND%d", trial))
	ed, err := core.NewEditor(d, top)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		x, y := i%3, i/3
		tr := geom.MakeTransform(geom.R0, geom.Pt(x*20*rules.Lambda, y*24*rules.Lambda))
		if _, err := ed.CreateInstance("SRCELL", fmt.Sprintf("c%d", i), tr, 1, 1, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	created := 0
	for step := 0; step < 6; step++ {
		switch op := rng.Intn(10); {
		case op < 5 && len(top.Instances) > 0:
			in := top.Instances[rng.Intn(len(top.Instances))]
			ed.MoveInstance(in, geom.Pt((rng.Intn(9)-4)*rules.Lambda, (rng.Intn(9)-4)*rules.Lambda))
		case op < 7:
			created++
			at := geom.Pt((3+rng.Intn(3))*20*rules.Lambda+rng.Intn(2*rules.Lambda), rng.Intn(3)*24*rules.Lambda)
			if _, err := ed.CreateInstance("NAND", fmt.Sprintf("x%d", created),
				geom.MakeTransform(geom.R0, at), 1, 1, 0, 0); err != nil {
				t.Fatal(err)
			}
		case op < 8 && len(top.Instances) > 1:
			if err := ed.DeleteInstance(top.Instances[rng.Intn(len(top.Instances))]); err != nil {
				t.Fatal(err)
			}
		default:
			if len(top.Instances) == 0 {
				continue
			}
			ed.OrientInstance(top.Instances[rng.Intn(len(top.Instances))], geom.R90)
		}
	}
	return top
}

// TestHierRandomPlacementsMatchFlat is the randomized differential:
// independent trials of editor-style operation bursts (moves by
// lambda-grid offsets, creates, deletes, rotations) on individually
// placed grids, verdict-compared against flat after every burst. An
// engine decline is legal — a move can bury a gate under a neighbor's
// diffusion, the documented poison condition — but accepted trials
// must dominate, and on every accepted trial the verdict (circuit,
// violations, labels) must be identical to flat.
func TestHierRandomPlacementsMatchFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(1982))
	const trials = 12
	e := New()
	accepted, declined := 0, 0
	for trial := 0; trial < trials; trial++ {
		top := editTrace(t, rng, trial)
		if mustMatch(t, e, top, fmt.Sprintf("trial %d", trial)) {
			accepted++
		} else {
			declined++
		}
	}
	if accepted < 2*trials/3 {
		t.Errorf("engine declined %d of %d random placements; the general path should carry most", declined, trials)
	}
}

// TestHierLeafStraddlingSeam places a 1x1 leaf instance straddling the
// seam between two halves of an abutting array — top-level geometry
// cutting across composition seams is exactly what per-cell
// certificates cannot precompute. Where the NAND's gates clear the
// arrays' diffusion the composition must match flat; where one lands on
// it (33, 7 lambda) the engine must decline as poison and leave the
// verdict to the flat reference.
func TestHierLeafStraddlingSeam(t *testing.T) {
	for _, tc := range []struct {
		x, y   int // NAND origin in lambda, at an un-gridded offset
		poison bool
	}{
		{34, 14, false},
		{33, 7, true},
	} {
		d, top := newDesign(t, fmt.Sprintf("STRADDLE%d_%d", tc.x, tc.y))
		sr, _ := d.Cell("SRCELL")
		left := core.NewInstance("l", sr, geom.Identity)
		left.Nx, left.Ny = 2, 2
		left.Sx, left.Sy = 20*rules.Lambda, 24*rules.Lambda
		right := core.NewInstance("r", sr, geom.MakeTransform(geom.R0, geom.Pt(40*rules.Lambda, 0)))
		right.Nx, right.Ny = 2, 2
		right.Sx, right.Sy = 20*rules.Lambda, 24*rules.Lambda
		nand, _ := d.Cell("NAND")
		mid := core.NewInstance("m", nand, geom.MakeTransform(geom.R0, geom.Pt(tc.x*rules.Lambda, tc.y*rules.Lambda)))
		top.Instances = append(top.Instances, left, right, mid)
		if bb, seam := mid.BBox(), 40*rules.Lambda; bb.Min.X >= seam || bb.Max.X <= seam {
			t.Fatalf("%s: NAND box %v does not straddle the seam", top.Name, bb)
		}
		e := New()
		e.Log = obs.Discard
		if tc.poison {
			mustDecline(t, e, top, CondPoison)
		} else if !mustMatch(t, e, top, top.Name) {
			t.Fatalf("%s: engine declined: %v", top.Name, e.LastDecline())
		}
	}
}

// TestHierNestedComposition runs a composition of compositions: the
// walk must recurse and the verdict must match flat.
func TestHierNestedComposition(t *testing.T) {
	d, row := newDesign(t, "ROW")
	sr, _ := d.Cell("SRCELL")
	in := core.NewInstance("a", sr, geom.Identity)
	in.Nx, in.Ny = 3, 1
	in.Sx, in.Sy = 20*rules.Lambda, 24*rules.Lambda
	row.Instances = append(row.Instances, in)

	top := core.NewComposition("NEST")
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	r0 := core.NewInstance("r0", row, geom.Identity)
	r1 := core.NewInstance("r1", row, geom.MakeTransform(geom.R0, geom.Pt(0, 24*rules.Lambda)))
	top.Instances = append(top.Instances, r0, r1)
	if !mustMatch(t, New(), top, "nested") {
		t.Fatal("engine declined a nested composition")
	}
}

// TestHierWarmRestart pins the persistence contract: a second engine
// (fresh memo, same disk store) must answer from disk certificates and
// re-extract zero cells.
func TestHierWarmRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() (*castore.Store, *castore.Signer) {
		st, err := castore.Open(filepath.Join(dir, "cas"))
		if err != nil {
			t.Fatal(err)
		}
		return st, &castore.Signer{}
	}

	st1, sg1 := open()
	e1 := New()
	e1.AttachDisk(st1, sg1)
	c := srArray(t, 16, 16, geom.R0)
	if _, ok := e1.Verify(c); !ok {
		t.Fatal("cold engine declined")
	}
	if e1.Stats().CertBuilt == 0 || e1.Stats().CertStored == 0 {
		t.Fatalf("cold run built/stored nothing: %+v", e1.Stats())
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, sg2 := open()
	defer st2.Close()
	e2 := New()
	e2.AttachDisk(st2, sg2)
	res, ok := e2.Verify(srArray(t, 16, 16, geom.R0))
	if !ok {
		t.Fatal("warm engine declined")
	}
	if got := e2.Stats().CertBuilt; got != 0 {
		t.Fatalf("warm restart re-extracted %d certified cell(s), want 0", got)
	}
	if e2.Stats().CertDiskHits == 0 {
		t.Fatalf("warm restart loaded nothing from disk: %+v", e2.Stats())
	}
	wantCkt, wantErr, wantVs := flatVerdict(t, c)
	if wantErr != nil {
		t.Fatal(wantErr)
	}
	if !reflect.DeepEqual(res.Violations, wantVs) || res.NetCount != wantCkt.NetCount {
		t.Fatal("warm verdict differs from flat")
	}
}

// TestHierCorruptCertFallsBack pins decode hardening: a truncated
// payload must be discarded (and quarantined), never crash, and the
// engine must rebuild.
func TestHierCorruptCertFallsBack(t *testing.T) {
	if _, err := decodeCert([]byte{0x01, 0x02}); err == nil {
		t.Fatal("truncated certificate decoded without error")
	}
	// round-trip: encode a real certificate, decode, re-verify equality
	e := New()
	c := srArray(t, 2, 2, geom.R0)
	if _, ok := e.Verify(c); !ok {
		t.Fatal("engine declined")
	}
	for k, ct := range e.memo {
		back, err := decodeCert(encodeCert(ct))
		if err != nil {
			t.Fatalf("round-trip %v: %v", k, err)
		}
		back.Cell = ct.Cell
		if !reflect.DeepEqual(back.X.FragNet, ct.X.FragNet) ||
			back.X.NetCount != ct.X.NetCount ||
			!reflect.DeepEqual(back.X.Devices, ct.X.Devices) ||
			!reflect.DeepEqual(back.D.Resid, ct.D.Resid) ||
			!reflect.DeepEqual(back.D.Comp, ct.D.Comp) {
			t.Fatalf("round-trip %v: certificate drifted", k)
		}
	}
}
