package shell

import (
	"io"
	"io/fs"
	"strings"
	"testing"
	"testing/fstest"

	"riot/internal/geom"
	"riot/internal/rules"
)

const gateSticks = `STICKS GATE
BBOX 0 0 20 10
WIRE NM 2 0 5 20 5
WIRE NM 2 5 0 5 10
WIRE NM 2 15 0 15 10
CONNECTOR IN 0 5 NM 2 left
CONNECTOR OUT 20 5 NM 2 right
CONNECTOR B1 5 0 NM 2 bottom
CONNECTOR B2 15 0 NM 2 bottom
CONNECTOR T1 5 10 NM 2 top
CONNECTOR T2 15 10 NM 2 top
END
`

const padCIF = "DS 1; 9 PAD; L NM; B 10000 10000 5000 5000; 94 P 5000 0 NM 750; DF; E\n"

type testEnv struct {
	sh    *Shell
	out   *strings.Builder
	files map[string][]byte
}

func newEnv(t *testing.T) *testEnv {
	t.Helper()
	out := &strings.Builder{}
	sh := New(out)
	env := &testEnv{sh: sh, out: out, files: map[string][]byte{}}
	fsys := fstest.MapFS{
		"gate.sticks": {Data: []byte(gateSticks)},
		"pad.cif":     {Data: []byte(padCIF)},
	}
	sh.FS = overlayFS{fsys, env.files}
	sh.WriteFile = func(name string, data []byte) error {
		env.files[name] = data
		return nil
	}
	return env
}

// overlayFS serves written files on top of a base fstest.MapFS, so
// SAVEJOURNAL output can be re-read by REPLAY.
type overlayFS struct {
	base  fstest.MapFS
	extra map[string][]byte
}

func (o overlayFS) Open(name string) (fs.File, error) {
	if data, ok := o.extra[name]; ok {
		m := fstest.MapFS{name: &fstest.MapFile{Data: data}}
		return m.Open(name)
	}
	return o.base.Open(name)
}

func TestShellBuildAndConnect(t *testing.T) {
	env := newEnv(t)
	sh := env.sh
	err := sh.ExecAll(
		"READ gate.sticks",
		"EDIT TOP",
		"CREATE GATE a AT 0 0",
		"CREATE GATE b AT 50 7",
		"CONNECT b.IN a.OUT",
		"ABUT",
	)
	if err != nil {
		t.Fatal(err)
	}
	top, _ := sh.Design.Cell("TOP")
	b, _ := top.InstanceByName("b")
	a, _ := top.InstanceByName("a")
	bin, _ := b.Connector("IN")
	aout, _ := a.Connector("OUT")
	if bin.At != aout.At {
		t.Errorf("abut failed: %v vs %v", bin.At, aout.At)
	}
}

func TestShellRouteAndJournal(t *testing.T) {
	env := newEnv(t)
	sh := env.sh
	err := sh.ExecAll(
		"READ gate.sticks",
		"EDIT TOP",
		"CREATE GATE a AT 0 0",
		"CREATE GATE b AT 7 60",
		"CONNECT b.B1 a.T1",
		"CONNECT b.B2 a.T2",
		"ROUTE",
	)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.out.String(), "route cell") {
		t.Errorf("no route report:\n%s", env.out.String())
	}
	// journal recorded the mutating commands
	lines := sh.Journal.Lines()
	if len(lines) != 7 {
		t.Errorf("journal lines = %d: %v", len(lines), lines)
	}
}

func TestShellCreateVariants(t *testing.T) {
	env := newEnv(t)
	sh := env.sh
	err := sh.ExecAll(
		"READ gate.sticks",
		"EDIT TOP",
		"CREATE GATE arr AT 0 0 ARRAY 4 1",
		"CREATE GATE rot AT 100 0 ORIENT R90",
	)
	if err != nil {
		t.Fatal(err)
	}
	top, _ := sh.Design.Cell("TOP")
	arr, _ := top.InstanceByName("arr")
	if arr.Nx != 4 || arr.Sx != 20*rules.Lambda {
		t.Errorf("array = %dx%d spacing %d", arr.Nx, arr.Ny, arr.Sx)
	}
	rot, _ := top.InstanceByName("rot")
	if rot.Tr.O != geom.R90 {
		t.Errorf("orient = %v", rot.Tr.O)
	}
}

func TestShellErrors(t *testing.T) {
	env := newEnv(t)
	sh := env.sh
	cases := []string{
		"BOGUS",
		"CREATE GATE x",    // no editor
		"READ missing.cif", // missing file
		"READ gate.txt",    // unknown extension
		"CONNECT a b",      // no editor
		"EDIT",             // missing arg
	}
	for _, c := range cases {
		if err := sh.Exec(c); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
	// errors are not recorded in the journal
	if sh.Journal.Len() != 0 {
		t.Errorf("journal polluted: %v", sh.Journal.Lines())
	}
}

func TestShellWriteCIF(t *testing.T) {
	env := newEnv(t)
	sh := env.sh
	err := sh.ExecAll(
		"READ gate.sticks",
		"READ pad.cif",
		"EDIT TOP",
		"CREATE GATE a AT 0 0",
		"CREATE PAD p AT 0 30",
		"ENDEDIT",
		"WRITECIF out.cif TOP",
	)
	if err != nil {
		t.Fatal(err)
	}
	data, ok := env.files["out.cif"]
	if !ok {
		t.Fatal("out.cif not written")
	}
	text := string(data)
	if !strings.Contains(text, "9 TOP;") || !strings.Contains(text, "9 PAD;") {
		t.Errorf("CIF missing symbols:\n%s", text)
	}
}

// streamSink records writes through the shell's CreateFile hook so the
// streaming WRITECIF path can be compared against the buffered one.
type streamSink struct {
	env    *testEnv
	name   string
	buf    strings.Builder
	closed bool
}

func (w *streamSink) Write(p []byte) (int, error) { return w.buf.WriteString(string(p)) }
func (w *streamSink) Close() error {
	w.closed = true
	w.env.files[w.name] = []byte(w.buf.String())
	return nil
}

// TestShellWriteCIFStreams checks WRITECIF prefers the CreateFile
// streaming sink (mask text never passes through WriteFile) and that
// the streamed bytes equal the buffered path's exactly.
func TestShellWriteCIFStreams(t *testing.T) {
	env := newEnv(t)
	sh := env.sh
	err := sh.ExecAll(
		"READ gate.sticks",
		"EDIT TOP",
		"CREATE GATE a AT 0 0",
		"CREATE GATE b AT 20 0",
		"ENDEDIT",
		"WRITECIF buffered.cif TOP",
	)
	if err != nil {
		t.Fatal(err)
	}

	var sink *streamSink
	sh.CreateFile = func(name string) (io.WriteCloser, error) {
		sink = &streamSink{env: env, name: name}
		return sink, nil
	}
	sh.WriteFile = func(name string, data []byte) error {
		t.Fatalf("WRITECIF buffered %q through WriteFile with a streaming sink attached", name)
		return nil
	}
	if err := sh.Exec("WRITECIF streamed.cif TOP"); err != nil {
		t.Fatal(err)
	}
	if sink == nil || !sink.closed {
		t.Fatal("streaming sink not used or not closed")
	}
	if string(env.files["streamed.cif"]) != string(env.files["buffered.cif"]) {
		t.Error("streamed CIF differs from the buffered path")
	}
}

func TestShellWriteComposition(t *testing.T) {
	env := newEnv(t)
	sh := env.sh
	err := sh.ExecAll(
		"READ gate.sticks",
		"EDIT TOP",
		"CREATE GATE a AT 0 0",
		"ENDEDIT",
		"WRITE out.comp",
	)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(env.files["out.comp"]), "COMPOSITION TOP") {
		t.Error("composition file wrong")
	}
}

func TestShellShowAndCells(t *testing.T) {
	env := newEnv(t)
	sh := env.sh
	if err := sh.ExecAll("READ gate.sticks", "CELLS", "SHOW GATE"); err != nil {
		t.Fatal(err)
	}
	out := env.out.String()
	if !strings.Contains(out, "GATE") || !strings.Contains(out, "connector") {
		t.Errorf("output:\n%s", out)
	}
}

func TestShellStretch(t *testing.T) {
	env := newEnv(t)
	sh := env.sh
	err := sh.ExecAll(
		"READ gate.sticks",
		"EDIT TOP",
		"CREATE GATE a1 AT 0 0",
		"CREATE GATE a2 AT 30 0",
		"CREATE GATE b AT 0 50",
		"CONNECT b.B1 a1.T1",
		"CONNECT b.B2 a2.T2",
		"STRETCH",
	)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.out.String(), "stretched into") {
		t.Errorf("no stretch report:\n%s", env.out.String())
	}
}

func TestShellQuitAndRun(t *testing.T) {
	env := newEnv(t)
	input := "READ gate.sticks\nEDIT TOP\nCREATE GATE a AT 0 0\nBOGUS COMMAND\nQUIT\nCREATE GATE b\n"
	if err := env.sh.Run(strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	if !env.sh.Quit() {
		t.Error("QUIT did not quit")
	}
	top, _ := env.sh.Design.Cell("TOP")
	if _, ok := top.InstanceByName("b"); ok {
		t.Error("command after QUIT executed")
	}
	if !strings.Contains(env.out.String(), "?") {
		t.Error("error not reported to user")
	}
}

func TestSplitConnRef(t *testing.T) {
	inst, conn, err := splitConnRef("a.OUT")
	if err != nil || inst != "a" || conn != "OUT" {
		t.Errorf("= %q %q %v", inst, conn, err)
	}
	// composition exports keep their dots
	inst, conn, err = splitConnRef("p.w1.B1")
	if err != nil || inst != "p" || conn != "w1.B1" {
		t.Errorf("= %q %q %v", inst, conn, err)
	}
	for _, bad := range []string{"noDot", ".x", "x."} {
		if _, _, err := splitConnRef(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestShellSetTracks(t *testing.T) {
	env := newEnv(t)
	if err := env.sh.ExecAll("EDIT TOP", "SET TRACKS 2"); err != nil {
		t.Fatal(err)
	}
	if env.sh.Editor.TracksPerChannel != 2 {
		t.Error("SET TRACKS ignored")
	}
}

func TestShellDeleteAndConnections(t *testing.T) {
	env := newEnv(t)
	sh := env.sh
	err := sh.ExecAll(
		"READ gate.sticks",
		"EDIT TOP",
		"CREATE GATE a AT 0 0",
		"CREATE GATE b AT 50 0",
		"CONNECT b.IN a.OUT",
		"CONNECTIONS",
		"UNCONNECT 0",
		"DELETE b",
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(sh.Editor.Pending) != 0 {
		t.Error("pending list not empty")
	}
	top, _ := sh.Design.Cell("TOP")
	if len(top.Instances) != 1 {
		t.Error("delete failed")
	}
}

func TestShellDRC(t *testing.T) {
	env := newEnv(t)
	sh := env.sh
	// two GATE instances 1 lambda apart: their facing metal wires end
	// up under the 3-lambda rule, and the boxes do not abut
	err := sh.ExecAll(
		"READ gate.sticks",
		"EDIT TOP",
		"CREATE GATE a AT 0 0",
		"CREATE GATE b AT 24 0",
		"DRC",
	)
	if err != nil {
		t.Fatal(err)
	}
	if out := env.out.String(); !strings.Contains(out, "violation") || !strings.Contains(out, "NM spacing") {
		t.Errorf("DRC report missing violations:\n%s", out)
	}
	// the named-cell form: the GATE fixture's 2-lambda metal is under
	// the 3-lambda width rule and must be reported as such
	env.out.Reset()
	if err := sh.Exec("DRC GATE"); err != nil {
		t.Fatal(err)
	}
	if out := env.out.String(); !strings.Contains(out, "NM width") {
		t.Errorf("narrow fixture metal not reported:\n%s", out)
	}
	// a clean cell: the CIF pad is one fat metal box
	if err := sh.Exec("READ pad.cif"); err != nil {
		t.Fatal(err)
	}
	env.out.Reset()
	if err := sh.Exec("DRC PAD"); err != nil {
		t.Fatal(err)
	}
	if out := env.out.String(); !strings.Contains(out, "no design-rule violations") {
		t.Errorf("clean cell reported dirty:\n%s", out)
	}
	// errors: unknown cell, no editor
	if err := sh.Exec("DRC NOPE"); err == nil {
		t.Error("DRC on unknown cell succeeded")
	}
	if err := sh.Exec("ENDEDIT"); err != nil {
		t.Fatal(err)
	}
	if err := sh.Exec("DRC"); err == nil {
		t.Error("bare DRC with no cell under edit succeeded")
	}
}
