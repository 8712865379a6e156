// Package riot is a Go reproduction of RIOT, the simple graphical chip
// assembly tool of Trimberger & Rowson (19th Design Automation
// Conference, 1982). Riot assembles pre-designed leaf cells into
// integrated systems: the designer places instances and chooses, at
// every connection, one of three guaranteed-correct connection
// primitives — abutment, river routing, or stretching — while the tool
// takes care of "the tedious and exacting implementation detail".
//
// This package is the public facade. A Session bundles a design (the
// cell menu), the textual command interpreter, an in-memory file
// system pre-loaded with the standard cell library, rendering to PPM
// screenshots and HP-GL plots, and the replay journal. The underlying
// subsystems live in internal/ packages:
//
//	internal/core     cells, instances, connectors, ABUT/ROUTE/STRETCH
//	internal/cif      Caltech Intermediate Form reader/writer
//	internal/sticks   symbolic layout (Sticks Standard)
//	internal/compact  the stick optimizer (REST stand-in) for stretching
//	internal/river    the multi-layer river router
//	internal/compo    composition format (session persistence)
//	internal/replay   command journal and replay
//	internal/shell    the textual command interface
//	internal/ui       the graphical command interface (figure 2)
//	internal/...      raster, plot, display, workstation, lib
//
// Quickstart:
//
//	s, _ := riot.NewSession(os.Stdout)
//	s.ExecAll(
//	    "READ nand.sticks",
//	    "EDIT CHIP",
//	    "CREATE NAND g1 AT 0 0",
//	    "CREATE NAND g2 AT 40 5",
//	    "CONNECT g2.PWRL g1.PWRR",
//	    "ABUT",
//	)
//	png, _ := s.RenderPPM("CHIP", 768, 512, false)
package riot

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"strings"
	"testing/fstest"

	"riot/internal/cif"
	"riot/internal/core"
	"riot/internal/display"
	"riot/internal/drc"
	"riot/internal/extract"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/lvs"
	"riot/internal/obs"
	"riot/internal/plot"
	"riot/internal/raster"
	"riot/internal/shell"
	"riot/internal/ui"
	"riot/internal/verify"
	"riot/internal/workstation"
)

// Re-exported core types, so downstream users rarely need the internal
// import paths.
type (
	// Design is the cell registry (the cell menu).
	Design = core.Design
	// Cell is a leaf or composition cell.
	Cell = core.Cell
	// Instance is a placed, oriented, optionally replicated cell.
	Instance = core.Instance
	// Editor is an editing session on one composition cell.
	Editor = core.Editor
	// Connector is a cell connection point.
	Connector = core.Connector
	// Violation is one design-rule failure reported by CheckDRC.
	Violation = drc.Violation
	// Circuit is the transistor-level netlist Extract recovers.
	Circuit = extract.Circuit
	// VerifyReport bundles one whole-design verification: the
	// extracted circuit and the design-rule report.
	VerifyReport = verify.Report
	// LVSResult is the outcome of a layout-versus-schematic
	// comparison (CheckLVS).
	LVSResult = lvs.Result
	// LVSMismatch is one structured LVS diagnostic.
	LVSMismatch = lvs.Mismatch
	// Trace records the verification pipeline's span tree (SetTrace);
	// export it with WriteChrome for chrome://tracing or Perfetto.
	Trace = obs.Trace
	// StatsSnapshot is one point-in-time pull of the session's unified
	// verification statistics (Snapshot).
	StatsSnapshot = obs.Snapshot
)

// NewTrace returns an enabled span recorder ready for SetTrace.
func NewTrace() *Trace { return obs.NewTrace() }

// Session is one Riot run: a design, a shell, files, and devices.
type Session struct {
	Shell *shell.Shell

	files map[string][]byte
	extra fs.FS
}

// NewSession starts a session with the standard cell library (the
// paper's figure-8 pads and gates plus pipe fittings) available as
// files: pads.cif, srcell.sticks, nand.sticks, or4.sticks,
// pipem.sticks, pipep.sticks. Output (command reports, warnings) goes
// to out; pass nil to discard.
func NewSession(out io.Writer) (*Session, error) {
	libFiles, err := lib.Files()
	if err != nil {
		return nil, err
	}
	s := &Session{files: libFiles}
	sh := shell.New(out)
	sh.FS = sessionFS{s}
	sh.WriteFile = func(name string, data []byte) error {
		s.files[name] = data
		return nil
	}
	sh.Plot = func(cell *core.Cell, file string) error {
		data, err := plotCell(cell, true)
		if err != nil {
			return err
		}
		s.files[file] = data
		return nil
	}
	s.Shell = sh
	return s, nil
}

// sessionFS resolves file names against the session's in-memory files
// first, then any mounted external file system.
type sessionFS struct{ s *Session }

func (m sessionFS) Open(name string) (fs.File, error) {
	if data, ok := m.s.files[name]; ok {
		return fstest.MapFS{name: &fstest.MapFile{Data: data}}.Open(name)
	}
	if m.s.extra != nil {
		return m.s.extra.Open(name)
	}
	return nil, fmt.Errorf("open %s: %w", name, fs.ErrNotExist)
}

// Mount attaches an external file system (e.g. os.DirFS) behind the
// in-memory files.
func (s *Session) Mount(fsys fs.FS) { s.extra = fsys }

// AttachCache opens (creating if needed) a persistent verification
// cache rooted at dir and wires it under the session's verifier:
// per-cell hierarchical extract+DRC certificates then survive across
// processes, keyed by content signatures. LVS derives its leaf memos
// in process, once per distinct leaf per session. Corrupt or
// version-skewed entries are quarantined and recomputed cold; verdicts
// are identical to cache-free runs.
func (s *Session) AttachCache(dir string) error { return s.Shell.AttachCache(dir) }

// Snapshot pulls the session's unified verification statistics: the
// same sections, keys and values the shell STATS command and riot
// -stats render (the three surfaces are pinned identical by test).
func (s *Session) Snapshot() *StatsSnapshot { return s.Shell.Snapshot() }

// SetTrace wires a span recorder through the session's whole
// verification pipeline (flatten, extract, DRC, the hierarchical
// engine, LVS, the persistent store). nil detaches tracing; a detached
// pipeline records nothing and costs nothing.
func (s *Session) SetTrace(t *Trace) { s.Shell.SetTrace(t) }

// AddFile places a file in the session's in-memory file system.
func (s *Session) AddFile(name string, data []byte) { s.files[name] = data }

// File retrieves a file written during the session (WRITE, PLOT,
// SAVEJOURNAL, screenshots).
func (s *Session) File(name string) ([]byte, bool) {
	data, ok := s.files[name]
	return data, ok
}

// Exec runs one textual command.
func (s *Session) Exec(line string) error { return s.Shell.Exec(line) }

// ExecAll runs a batch of commands, failing fast.
func (s *Session) ExecAll(lines ...string) error { return s.Shell.ExecAll(lines...) }

// Run interprets commands from r until EOF or QUIT, reporting errors
// to the session output without stopping (interactive semantics).
func (s *Session) Run(r io.Reader) error { return s.Shell.Run(r) }

// Design returns the session's cell registry.
func (s *Session) Design() *Design { return s.Shell.Design }

// Editor returns the current editing session, or nil.
func (s *Session) Editor() *Editor { return s.Shell.Editor }

// InstallLibrary registers the standard library cells directly in the
// design (the file-free path; READ the .sticks/.cif files for the
// interchange path).
func (s *Session) InstallLibrary() error { return lib.Install(s.Shell.Design) }

// RenderPPM draws a cell into a w x h frame buffer and returns it as a
// binary PPM image. With geometry=false the cell renders in Riot's
// editing view (bounding boxes and connector crosses); with true, full
// mask geometry.
func (s *Session) RenderPPM(cellName string, w, h int, geometry bool) ([]byte, error) {
	cell, ok := s.Shell.Design.Cell(cellName)
	if !ok {
		return nil, fmt.Errorf("riot: no cell %q", cellName)
	}
	im := raster.New(w, h)
	v := display.FitView(cell.BBox(), geom.R(0, 0, w-1, h-1), true)
	display.DrawCell(display.RasterCanvas{Im: im}, v, cell, display.Options{Geometry: geometry})
	var b bytes.Buffer
	if err := im.WritePPM(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// PlotHPGL renders a cell for the four-pen plotter and returns the
// HP-GL command stream.
func (s *Session) PlotHPGL(cellName string, geometry bool) ([]byte, error) {
	cell, ok := s.Shell.Design.Cell(cellName)
	if !ok {
		return nil, fmt.Errorf("riot: no cell %q", cellName)
	}
	return plotCell(cell, geometry)
}

func plotCell(cell *core.Cell, geometry bool) ([]byte, error) {
	var b bytes.Buffer
	p := plot.New(&b)
	v := display.FitView(cell.BBox(), geom.R(0, 0, 10000, 7200), false)
	display.DrawCell(display.PlotCanvas{P: p}, v, cell, display.Options{Geometry: geometry})
	if err := p.Finish(); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// CheckDRC design-rule checks a cell's mask geometry and returns the
// violations in deterministic order (empty means the design checks
// clean). Checks go through the session's verifier, hierarchical by
// default: each distinct cell is checked once and placements compose,
// so after a small edit no unchanged cell is re-checked.
func (s *Session) CheckDRC(cellName string) ([]Violation, error) {
	rep, err := s.VerifyCell(cellName)
	if err != nil {
		return nil, err
	}
	return rep.Violations, nil
}

// Extract recovers a cell's transistor-level circuit, reusing the
// session's incremental verifier for the cell under edit. Its labels
// are a positional table; name them through the cell
// (Circuit.NetOf, Net, SameNet with Design().Cell(cellName)).
func (s *Session) Extract(cellName string) (*Circuit, error) {
	rep, err := s.VerifyCell(cellName)
	if err != nil {
		return nil, err
	}
	return rep.Netlist()
}

// VerifyCell runs the full verification pipeline (extract + DRC) over
// a cell, incrementally for the cell under edit. The run consumes a
// frozen snapshot of the cell's current generation, so it shares the
// same determinism contract as the shell DRC/EXTRACT commands and the
// design server.
func (s *Session) VerifyCell(cellName string) (*VerifyReport, error) {
	rep, err := s.Shell.VerifyNamed(cellName)
	if err != nil {
		return nil, riotErr(cellName, err)
	}
	return rep, nil
}

// CheckLVS compares a cell's extracted netlist against the netlist its
// composition declares (leaf-cell netlists stitched by connector
// coincidence, sanctioned abutment seams and the editing session's
// retained connection records). The layout side reuses the session's
// incremental verifier, so LVS after DRC or EXTRACT re-extracts
// nothing; for the cell under edit the whole comparison is keyed on
// the editor generation.
func (s *Session) CheckLVS(cellName string) (*LVSResult, error) {
	res, err := s.Shell.LVSNamed(cellName)
	if err != nil {
		return nil, riotErr(cellName, err)
	}
	return res, nil
}

// riotErr keeps the facade's historical "riot: no cell" wording for
// missing-cell errors while passing verification errors through.
func riotErr(cellName string, err error) error {
	if strings.Contains(err.Error(), "no cell") {
		return fmt.Errorf("riot: no cell %q", cellName)
	}
	return err
}

// ExportCIF flattens a cell into CIF text for mask generation.
func (s *Session) ExportCIF(cellName string) ([]byte, error) {
	cell, ok := s.Shell.Design.Cell(cellName)
	if !ok {
		return nil, fmt.Errorf("riot: no cell %q", cellName)
	}
	f, err := core.ExportCIF(cell)
	if err != nil {
		return nil, err
	}
	return []byte(cif.String(f)), nil
}

// OpenWorkstation attaches a simulated graphic workstation and opens
// the graphical editor on the cell under edit. kind is "charles"
// (figure 1a) or "gigi" (figure 1b).
func (s *Session) OpenWorkstation(kind string) (*ui.UI, *workstation.Workstation, error) {
	var ws *workstation.Workstation
	switch strings.ToLower(kind) {
	case "charles", "":
		ws = workstation.Charles()
	case "gigi":
		ws = workstation.GIGI()
	default:
		return nil, nil, fmt.Errorf("riot: unknown workstation %q (want charles or gigi)", kind)
	}
	u, err := ui.New(ws, s.Shell)
	if err != nil {
		return nil, nil, err
	}
	return u, ws, nil
}

// JournalLines returns the commands recorded so far (the REPLAY
// journal).
func (s *Session) JournalLines() []string { return s.Shell.Journal.Lines() }
