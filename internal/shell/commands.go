package shell

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"path"
	"strings"

	"riot/internal/cif"
	"riot/internal/compo"
	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/lvs"
	"riot/internal/replay"
	"riot/internal/sticks"
	"riot/internal/verify"
)

// cmdRead loads a file of any of the three interchange formats,
// deciding by suffix: .cif, .sticks (or .stk), .comp. "Riot can read
// leaf cells defined in CIF or Sticks, and composition cells defined
// in composition format."
func cmdRead(s *Shell, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("shell: READ <file>")
	}
	if s.FS == nil {
		return fmt.Errorf("shell: no file system attached")
	}
	name := args[0]
	data, err := fs.ReadFile(s.FS, name)
	if err != nil {
		return fmt.Errorf("shell: %w", err)
	}
	switch strings.ToLower(path.Ext(name)) {
	case ".cif":
		f, err := cif.ParseString(string(data))
		if err != nil {
			return err
		}
		n := 0
		for _, sym := range f.Symbols {
			// only named symbols become menu cells; anonymous ones are
			// sub-structure
			if sym.Name == "" {
				continue
			}
			cell, err := core.NewLeafFromCIF(f, sym)
			if err != nil {
				return err
			}
			cell.SourceFile = name
			if err := s.Design.AddCell(cell); err != nil {
				return err
			}
			n++
		}
		if n == 0 && len(f.Symbols) == 1 {
			cell, err := core.NewLeafFromCIF(f, f.Symbols[0])
			if err != nil {
				return err
			}
			cell.SourceFile = name
			if err := s.Design.AddCell(cell); err != nil {
				return err
			}
			n++
		}
		s.printf("read %d cell(s) from %s\n", n, name)
	case ".sticks", ".stk":
		cells, err := sticks.ParseAll(bytes.NewReader(data))
		if err != nil {
			return err
		}
		for _, sc := range cells {
			cell, err := core.NewLeafFromSticks(sc)
			if err != nil {
				return err
			}
			cell.SourceFile = name
			if err := s.Design.AddCell(cell); err != nil {
				return err
			}
		}
		s.printf("read %d cell(s) from %s\n", len(cells), name)
	case ".comp":
		d, err := compo.Load(bytes.NewReader(data), s.FS)
		if err != nil {
			return err
		}
		n := 0
		for _, cn := range d.CellNames() {
			c, _ := d.Cell(cn)
			if err := s.Design.AddCell(c); err != nil {
				return err
			}
			n++
		}
		s.printf("read %d cell(s) from %s\n", n, name)
	default:
		return fmt.Errorf("shell: unknown file type %q (want .cif, .sticks or .comp)", name)
	}
	return nil
}

func cmdWrite(s *Shell, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("shell: WRITE <file>")
	}
	if s.WriteFile == nil {
		return fmt.Errorf("shell: no file writer attached")
	}
	var b bytes.Buffer
	if err := compo.Save(&b, s.Design); err != nil {
		return err
	}
	if err := s.WriteFile(args[0], b.Bytes()); err != nil {
		return err
	}
	s.printf("wrote %s\n", args[0])
	return nil
}

// cmdWriteCIF flattens a cell's hierarchy into CIF symbols — the path
// to mask generation. The CIF text streams through File.WriteTo when a
// CreateFile sink is attached, so a full-chip mask file never
// materializes in memory; without one it buffers through WriteFile.
func cmdWriteCIF(s *Shell, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("shell: WRITECIF <file> <cell>")
	}
	if s.CreateFile == nil && s.WriteFile == nil {
		return fmt.Errorf("shell: no file writer attached")
	}
	cell, ok := s.Design.Cell(args[1])
	if !ok {
		return fmt.Errorf("shell: no cell %q", args[1])
	}
	f, err := core.ExportCIF(cell)
	if err != nil {
		return err
	}
	if s.CreateFile != nil {
		w, err := s.CreateFile(args[0])
		if err != nil {
			return err
		}
		if _, err := f.WriteTo(w); err != nil {
			w.Close()
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
	} else {
		var b bytes.Buffer
		if _, err := f.WriteTo(&b); err != nil {
			return err
		}
		if err := s.WriteFile(args[0], b.Bytes()); err != nil {
			return err
		}
	}
	s.printf("wrote %s (%d symbols)\n", args[0], len(f.Symbols))
	return nil
}

func cmdWriteSticks(s *Shell, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("shell: WRITESTICKS <file> <cell>")
	}
	if s.WriteFile == nil {
		return fmt.Errorf("shell: no file writer attached")
	}
	cell, ok := s.Design.Cell(args[1])
	if !ok {
		return fmt.Errorf("shell: no cell %q", args[1])
	}
	if cell.Kind != core.LeafSticks {
		return fmt.Errorf("shell: %q is not a symbolic cell", args[1])
	}
	var b bytes.Buffer
	if err := sticks.Write(&b, cell.Sticks); err != nil {
		return err
	}
	if err := s.WriteFile(args[0], b.Bytes()); err != nil {
		return err
	}
	s.printf("wrote %s\n", args[0])
	return nil
}

func cmdCells(s *Shell, args []string) error {
	for _, n := range s.Design.CellNames() {
		c, _ := s.Design.Cell(n)
		b := c.BBox()
		s.printf("%-16s %-11s %4dx%-4d lambda  %d connectors\n",
			n, c.Kind, b.W()/lam(1), b.H()/lam(1), len(c.Connectors()))
	}
	return nil
}

func cmdShow(s *Shell, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("shell: SHOW <cell>")
	}
	c, ok := s.Design.Cell(args[0])
	if !ok {
		return fmt.Errorf("shell: no cell %q", args[0])
	}
	b := c.BBox()
	s.printf("cell %s (%s) bbox %v\n", c.Name, c.Kind, b)
	for _, in := range c.Instances {
		s.printf("  instance %-12s %-12s %v %dx%d\n", in.Name, in.Cell.Name, in.Tr, in.Nx, in.Ny)
	}
	for _, cn := range c.Connectors() {
		s.printf("  connector %-12s at %v %v w=%d side=%v\n", cn.Name, cn.At, cn.Layer, cn.Width, cn.Side)
	}
	return nil
}

func cmdDelCell(s *Shell, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("shell: DELCELL <cell>")
	}
	if s.Editor != nil && s.Editor.Cell.Name == args[0] {
		return fmt.Errorf("shell: cell %q is under edit", args[0])
	}
	return s.Design.DeleteCell(args[0])
}

func cmdRename(s *Shell, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("shell: RENAME <old> <new>")
	}
	return s.Design.RenameCell(args[0], args[1])
}

func cmdEdit(s *Shell, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("shell: EDIT <cell>")
	}
	if s.Editor != nil {
		return fmt.Errorf("shell: already editing %q (ENDEDIT first)", s.Editor.Cell.Name)
	}
	cell, ok := s.Design.Cell(args[0])
	if !ok {
		cell = core.NewComposition(args[0])
		if err := s.Design.AddCell(cell); err != nil {
			return err
		}
	}
	ed, err := core.NewEditor(s.Design, cell)
	if err != nil {
		return err
	}
	s.Editor = ed
	s.printf("editing %s\n", cell.Name)
	return nil
}

func cmdEndEdit(s *Shell, args []string) error {
	if s.Editor == nil {
		return fmt.Errorf("shell: no cell under edit")
	}
	s.printf("closed %s\n", s.Editor.Cell.Name)
	s.Editor = nil
	return nil
}

// cmdCreate parses: CREATE <cell> [<inst>] [AT x y] [ORIENT o]
// [ARRAY nx ny [sx sy]] — mirroring the paper's CREATE command with
// optional replication counts, spacing, rotation and mirroring.
func cmdCreate(s *Shell, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("shell: CREATE <cell> [<inst>] [AT x y] [ORIENT o] [ARRAY nx ny [sx sy]]")
	}
	cellName := args[0]
	instName := ""
	i := 1
	if i < len(args) && !isKeyword(args[i]) {
		instName = args[i]
		i++
	}
	at := geom.Point{}
	orient := geom.R0
	nx, ny, sx, sy := 1, 1, 0, 0
	for i < len(args) {
		switch strings.ToUpper(args[i]) {
		case "AT":
			x, err := argInt(args, i+1)
			if err != nil {
				return err
			}
			y, err := argInt(args, i+2)
			if err != nil {
				return err
			}
			at = geom.Pt(lam(x), lam(y))
			i += 3
		case "ORIENT":
			if i+1 >= len(args) {
				return fmt.Errorf("shell: ORIENT needs a value")
			}
			o, err := geom.ParseOrient(strings.ToUpper(args[i+1]))
			if err != nil {
				return err
			}
			orient = o
			i += 2
		case "ARRAY":
			var err error
			nx, err = argInt(args, i+1)
			if err != nil {
				return err
			}
			ny, err = argInt(args, i+2)
			if err != nil {
				return err
			}
			i += 3
			if i+1 < len(args) && !isKeyword(args[i]) {
				sx, err = argInt(args, i)
				if err != nil {
					return err
				}
				sy, err = argInt(args, i+1)
				if err != nil {
					return err
				}
				sx, sy = lam(sx), lam(sy)
				i += 2
			}
		default:
			return fmt.Errorf("shell: unexpected %q in CREATE", args[i])
		}
	}
	in, err := s.Editor.CreateInstance(cellName, instName, geom.MakeTransform(orient, at), nx, ny, sx, sy)
	if err != nil {
		return err
	}
	s.printf("created %s (%s) at %v\n", in.Name, cellName, in.Tr)
	return nil
}

func isKeyword(s string) bool {
	switch strings.ToUpper(s) {
	case "AT", "ORIENT", "ARRAY":
		return true
	}
	return false
}

func cmdMove(s *Shell, args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("shell: MOVE <inst> <dx> <dy>")
	}
	in, err := s.instance(args[0])
	if err != nil {
		return err
	}
	dx, err := argInt(args, 1)
	if err != nil {
		return err
	}
	dy, err := argInt(args, 2)
	if err != nil {
		return err
	}
	s.Editor.MoveInstance(in, geom.Pt(lam(dx), lam(dy)))
	return nil
}

func cmdPlace(s *Shell, args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("shell: PLACE <inst> <x> <y>")
	}
	in, err := s.instance(args[0])
	if err != nil {
		return err
	}
	x, err := argInt(args, 1)
	if err != nil {
		return err
	}
	y, err := argInt(args, 2)
	if err != nil {
		return err
	}
	s.Editor.PlaceInstance(in, geom.MakeTransform(in.Tr.O, geom.Pt(lam(x), lam(y))))
	return nil
}

func cmdOrient(s *Shell, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("shell: ORIENT <inst> <orientation>")
	}
	in, err := s.instance(args[0])
	if err != nil {
		return err
	}
	o, err := geom.ParseOrient(strings.ToUpper(args[1]))
	if err != nil {
		return err
	}
	s.Editor.OrientInstance(in, o)
	return nil
}

func cmdReplicate(s *Shell, args []string) error {
	if len(args) != 3 && len(args) != 5 {
		return fmt.Errorf("shell: REPLICATE <inst> <nx> <ny> [sx sy]")
	}
	in, err := s.instance(args[0])
	if err != nil {
		return err
	}
	nx, err := argInt(args, 1)
	if err != nil {
		return err
	}
	ny, err := argInt(args, 2)
	if err != nil {
		return err
	}
	sx, sy := 0, 0
	if len(args) == 5 {
		sx, err = argInt(args, 3)
		if err != nil {
			return err
		}
		sy, err = argInt(args, 4)
		if err != nil {
			return err
		}
		sx, sy = lam(sx), lam(sy)
	}
	return s.Editor.Replicate(in, nx, ny, sx, sy)
}

func cmdDelete(s *Shell, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("shell: DELETE <inst>")
	}
	in, err := s.instance(args[0])
	if err != nil {
		return err
	}
	return s.Editor.DeleteInstance(in)
}

func cmdConnect(s *Shell, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("shell: CONNECT <inst>.<conn> <inst>.<conn>")
	}
	fi, fc, err := splitConnRef(args[0])
	if err != nil {
		return err
	}
	ti, tc, err := splitConnRef(args[1])
	if err != nil {
		return err
	}
	from, err := s.instance(fi)
	if err != nil {
		return err
	}
	to, err := s.instance(ti)
	if err != nil {
		return err
	}
	return s.Editor.AddConnection(from, fc, to, tc)
}

func cmdAbutLink(s *Shell, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("shell: ABUTLINK <from> <to>")
	}
	from, err := s.instance(args[0])
	if err != nil {
		return err
	}
	to, err := s.instance(args[1])
	if err != nil {
		return err
	}
	return s.Editor.AddAbutLink(from, to)
}

func cmdBus(s *Shell, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("shell: BUS <from> <to>")
	}
	from, err := s.instance(args[0])
	if err != nil {
		return err
	}
	to, err := s.instance(args[1])
	if err != nil {
		return err
	}
	n, err := s.Editor.AddBus(from, to)
	if err != nil {
		return err
	}
	s.printf("%d connections pending\n", n)
	return nil
}

func cmdConnections(s *Shell, args []string) error {
	for i, c := range s.Editor.Pending {
		s.printf("%2d: %s\n", i, c)
	}
	return nil
}

func cmdUnconnect(s *Shell, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("shell: UNCONNECT <index>")
	}
	i, err := argInt(args, 0)
	if err != nil {
		return err
	}
	return s.Editor.DeleteConnection(i)
}

func cmdClear(s *Shell, args []string) error {
	s.Editor.ClearConnections()
	return nil
}

func cmdAbut(s *Shell, args []string) error {
	overlap := false
	if len(args) == 1 && strings.EqualFold(args[0], "OVERLAP") {
		overlap = true
	} else if len(args) != 0 {
		return fmt.Errorf("shell: ABUT [OVERLAP]")
	}
	warns, err := s.Editor.Abut(overlap)
	if err != nil {
		return err
	}
	for _, w := range warns {
		s.printf("warning: %s\n", w)
	}
	return nil
}

func cmdRoute(s *Shell, args []string) error {
	opt := core.RouteOptions{}
	if len(args) == 1 && strings.EqualFold(args[0], "NOMOVE") {
		opt.NoMove = true
	} else if len(args) != 0 {
		return fmt.Errorf("shell: ROUTE [NOMOVE]")
	}
	res, err := s.Editor.RouteConnect(opt)
	if err != nil {
		return err
	}
	for _, w := range res.Warnings {
		s.printf("warning: %s\n", w)
	}
	s.printf("route cell %s: %d tracks, %d channel(s), height %d lambda\n",
		res.RouteInst.Cell.Name, res.River.Tracks, res.River.Channels, res.River.Height)
	return nil
}

func cmdStretch(s *Shell, args []string) error {
	res, err := s.Editor.StretchConnect()
	if err != nil {
		return err
	}
	for _, w := range res.Warnings {
		s.printf("warning: %s\n", w)
	}
	s.printf("stretched into %s\n", res.NewCell.Name)
	return nil
}

func cmdBringOut(s *Shell, args []string) error {
	if len(args) < 3 {
		return fmt.Errorf("shell: BRINGOUT <inst> <side> <conn>...")
	}
	in, err := s.instance(args[0])
	if err != nil {
		return err
	}
	side, err := geom.ParseSide(strings.ToLower(args[1]))
	if err != nil {
		return err
	}
	ri, err := s.Editor.BringOut(in, args[2:], side)
	if err != nil {
		return err
	}
	if ri == nil {
		s.printf("connectors already on the cell edge\n")
	} else {
		s.printf("brought out via %s\n", ri.Name)
	}
	return nil
}

func cmdSet(s *Shell, args []string) error {
	if len(args) == 2 && strings.EqualFold(args[0], "TRACKS") {
		n, err := argInt(args, 1)
		if err != nil {
			return err
		}
		if s.Editor == nil {
			return fmt.Errorf("shell: SET TRACKS needs a cell under edit")
		}
		s.Editor.TracksPerChannel = n
		return nil
	}
	return fmt.Errorf("shell: SET TRACKS <n>")
}

func cmdPlot(s *Shell, args []string) error {
	if len(args) != 1 && len(args) != 2 {
		return fmt.Errorf("shell: PLOT <file> [<cell>]")
	}
	if s.Plot == nil {
		return fmt.Errorf("shell: no plotter attached")
	}
	var cell *core.Cell
	if len(args) == 2 {
		c, ok := s.Design.Cell(args[1])
		if !ok {
			return fmt.Errorf("shell: no cell %q", args[1])
		}
		cell = c
	} else {
		if s.Editor == nil {
			return fmt.Errorf("shell: PLOT with no cell argument needs a cell under edit")
		}
		cell = s.Editor.Cell
	}
	if err := s.Plot(cell, args[0]); err != nil {
		return err
	}
	s.printf("plotted %s to %s\n", cell.Name, args[0])
	return nil
}

// snapTarget resolves a DRC/EXTRACT/LVS target — an explicit name, or
// the cell under edit — and freezes it under the shared-design guard:
// the editor snapshot (generation-keyed, with declared connections)
// when the target is under edit, the design's frozen clone otherwise.
// Exactly one of snap/cell is non-nil. The verification itself then
// runs against the immutable frozen state with the guard released, so
// a server's other sessions keep editing while this one verifies.
func snapTarget(s *Shell, cmd string, args []string) (snap *core.Snapshot, cell *core.Cell, err error) {
	if s.Guard != nil {
		s.Guard.RLock()
		defer s.Guard.RUnlock()
	}
	switch len(args) {
	case 0:
		if s.Editor == nil {
			return nil, nil, fmt.Errorf("shell: %s with no cell argument needs a cell under edit", cmd)
		}
		return s.Editor.Snapshot(), nil, nil
	case 1:
		c, ok := s.Design.Cell(args[0])
		if !ok {
			return nil, nil, fmt.Errorf("shell: no cell %q", args[0])
		}
		if s.Editor != nil && s.Editor.Cell == c {
			return s.Editor.Snapshot(), nil, nil
		}
		return nil, s.Design.SnapshotCell(c), nil
	}
	return nil, nil, fmt.Errorf("shell: %s [<cell>]", cmd)
}

// verifyReport runs the session verifier over a frozen target: the
// generation-keyed incremental path for an editor snapshot, a
// cache-priming full run for a bare cell.
func (s *Shell) verifyReport(snap *core.Snapshot, cell *core.Cell) (*verify.Report, error) {
	if snap != nil {
		return s.Verifier.VerifySnapshot(snap)
	}
	return s.Verifier.VerifyCell(cell)
}

// VerifyNamed verifies one cell by name through the session's snapshot
// discipline — the editor's generation-keyed path when the cell is
// under edit, the design's frozen clone otherwise. Programmatic
// callers (riot.Session, the design server) use it so every surface
// verifies identically.
func (s *Shell) VerifyNamed(name string) (*verify.Report, error) {
	snap, cell, err := snapTarget(s, "VERIFY", []string{name})
	if err != nil {
		return nil, err
	}
	return s.verifyReport(snap, cell)
}

// LVSNamed netlist-compares one cell by name through the session's
// snapshot discipline, like VerifyNamed.
func (s *Shell) LVSNamed(name string) (*lvs.Result, error) {
	snap, cell, err := snapTarget(s, "LVS", []string{name})
	if err != nil {
		return nil, err
	}
	if snap != nil {
		return s.LVS.CheckSnapshot(snap, &s.Verifier)
	}
	return s.LVS.CheckCell(cell, &s.Verifier)
}

// cmdDRC runs the design-rule checker over a cell's flattened mask
// geometry — the whole-design verification step the paper's workflow
// ends with. With no argument it checks the cell under edit; repeated
// checks of the cell under edit reuse the incremental verifier cache.
func cmdDRC(s *Shell, args []string) error {
	snap, cell, err := snapTarget(s, "DRC", args)
	if err != nil {
		return err
	}
	name := targetName(snap, cell)
	rep, err := s.verifyReport(snap, cell)
	if err != nil {
		return err
	}
	vs := rep.Violations
	if len(vs) == 0 {
		s.printf("%s: no design-rule violations\n", name)
		return nil
	}
	for _, v := range vs {
		s.printf("%s\n", v)
	}
	s.printf("%s: %d design-rule violation(s)\n", name, len(vs))
	return nil
}

// targetName names a frozen verification target for output.
func targetName(snap *core.Snapshot, cell *core.Cell) string {
	if snap != nil {
		return snap.Cell.Name
	}
	return cell.Name
}

// cmdExtract recovers a cell's transistor-level circuit — the
// electrical half of the verification loop. Like DRC it reuses the
// incremental verifier cache for the cell under edit.
func cmdExtract(s *Shell, args []string) error {
	snap, cell, err := snapTarget(s, "EXTRACT", args)
	if err != nil {
		return err
	}
	name := targetName(snap, cell)
	rep, err := s.verifyReport(snap, cell)
	if err != nil {
		return err
	}
	ckt, err := rep.Netlist()
	if err != nil {
		return err
	}
	target := cell
	if snap != nil {
		target = snap.Cell
	}
	s.printf("%s: %d net(s), %d transistor(s), %d label(s)\n",
		name, ckt.NetCount, len(ckt.Transistors), len(ckt.NetOf(target)))
	return nil
}

// cmdLVS compares a cell's extracted netlist against its declared
// composition — the layout-versus-schematic leg of the verification
// triad. The layout side shares the incremental verifier cache with
// DRC and EXTRACT; for the cell under edit, the session's retained
// connection records participate in the reference. -stats additionally
// prints the witness accounting (how many leaf occurrences the
// walk-order witness certified, how many leaves the session extracted
// standalone) and the hierarchical verification engine's run counters
// (fast runs, fallbacks, per-cell certificates built vs reloaded from
// the store).
func cmdLVS(s *Shell, args []string) error {
	stats := false
	if len(args) > 0 && args[0] == "-stats" {
		stats = true
		args = args[1:]
	}
	snap, cell, err := snapTarget(s, "LVS", args)
	if err != nil {
		return err
	}
	name := targetName(snap, cell)
	var res *lvs.Result
	if snap != nil {
		res, err = s.LVS.CheckSnapshot(snap, &s.Verifier)
	} else {
		res, err = s.LVS.CheckCell(cell, &s.Verifier)
	}
	if err != nil {
		return err
	}
	if stats {
		st, rs := res.Cert, s.LVS.Ref.Stats()
		s.printf("%s: witness: %d/%d leaf occurrence(s) certified; %d leaf extraction(s) this session\n",
			name, st.Certified, st.Occurrences, rs.LeavesExtracted)
		s.printf("%s: %s\n", name, s.Verifier.HierStats())
		if d := s.Verifier.HierDeclineInfo(); d != nil {
			s.printf("%s: hier declined: condition=%s cell=%q placement=%d: %v\n",
				name, d.Cond, d.Cell, d.Placement, d)
		}
		if s.Cache != nil {
			cst := s.Cache.Stats()
			s.printf("%s: persistent store: %d disk hit(s), %d corrupt entr(ies) quarantined (%d moved aside), %d miss(es), %d put(s), %d put error(s)\n",
				name, cst.Hits, cst.Corrupt, cst.Quarantined, cst.Misses, cst.Puts, cst.PutErrors)
		}
		if s.Faults != nil {
			s.printf("%s: faults: %s\n", name, s.Faults)
		}
		if st.Fallback {
			s.printf("%s: the witness failed; the flat comparison decided\n", name)
		}
	}
	if res.Clean {
		s.printf("%s: netlists match (%d nets, %d devices)\n", name, res.RefNets, res.RefDevices)
		return nil
	}
	for _, mm := range res.Mismatches {
		s.printf("%s\n", mm)
	}
	s.printf("%s: %d LVS mismatch(es)\n", name, len(res.Mismatches))
	return nil
}

func cmdReplay(s *Shell, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("shell: REPLAY <file>")
	}
	if s.FS == nil {
		return fmt.Errorf("shell: no file system attached")
	}
	data, err := fs.ReadFile(s.FS, args[0])
	if err != nil {
		return fmt.Errorf("shell: %w", err)
	}
	j, err := replay.Load(bytes.NewReader(data))
	if err != nil {
		return err
	}
	run := s.Exec
	if s.ReplayExec != nil {
		run = s.ReplayExec
	}
	if err := j.Replay(run); err != nil {
		return err
	}
	s.printf("replayed %d commands from %s\n", j.Len(), args[0])
	return nil
}

func cmdSaveJournal(s *Shell, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("shell: SAVEJOURNAL <file>")
	}
	if s.WriteFile == nil {
		return fmt.Errorf("shell: no file writer attached")
	}
	var b bytes.Buffer
	if err := s.Journal.Save(&b); err != nil {
		return err
	}
	if err := s.WriteFile(args[0], b.Bytes()); err != nil {
		return err
	}
	s.printf("saved %d commands to %s\n", s.Journal.Len(), args[0])
	return nil
}

// newLineScanner wraps bufio.Scanner with a bigger buffer.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return sc
}
