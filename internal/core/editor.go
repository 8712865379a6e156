package core

import (
	"fmt"
	"sync/atomic"

	"riot/internal/geom"
)

// Connection is one entry of the pending-connection list: "a link from
// a connector on one instance to a connector on another instance".
// The From instance is the one that moves (or stretches) when a
// connection specification command runs. A connection with empty
// connector names is a pure abutment link ("the user may specify
// merely that the instances are to be abutted, which is used if a cell
// has no connectors").
type Connection struct {
	From     *Instance
	FromConn string
	To       *Instance
	ToConn   string
}

// String renders the connection for the on-screen pending list.
func (c Connection) String() string {
	if c.FromConn == "" && c.ToConn == "" {
		return fmt.Sprintf("%s >< %s", c.From.Name, c.To.Name)
	}
	return fmt.Sprintf("%s.%s -> %s.%s", c.From.Name, c.FromConn, c.To.Name, c.ToConn)
}

// Editor is a graphical editing session on one composition cell: the
// cell under edit, the pending-connection list that is "shown on the
// screen constantly", and the routing defaults.
type Editor struct {
	Design  *Design
	Cell    *Cell // the composition cell under edit
	Pending []Connection

	// Declared retains every connector link a connection specification
	// command (ABUT, ROUTE, STRETCH) successfully executed. The paper
	// throws the logical connection information out once the command
	// runs — which is why a later MOVE can "silently destroy" a made
	// connection. This reproduction keeps the records as declared
	// design intent: the LVS netlist comparison (internal/lvs) stitches
	// its reference netlist from them, so a destroyed connection shows
	// up as a structured open instead of passing silently. Records
	// referencing a deleted instance are pruned with it.
	Declared []Connection

	// TracksPerChannel is the routing default set by the textual
	// command interface (0 = router default).
	TracksPerChannel int

	nextInst int

	// byName indexes the cell's instances by name, holding the first
	// of any duplicates as Cell.InstanceByName's scan finds it. Every
	// editor operation that changes the instance list maintains it, and
	// Invalidate rebuilds it.
	byName map[string]*Instance

	// Pointing support: a geom.Index over the instances' bounding
	// boxes, keyed by an edit generation so pan/zoom pointing over an
	// unchanged cell never rebuilds or rescans. Every editing
	// operation bumps gen.
	gen    uint64
	hitIx  *geom.Index
	hitGen uint64

	// snap caches the frozen view of the current generation; see
	// Editor.Snapshot.
	snap *Snapshot
}

// editorGen issues edit generations to every editor in the process.
// Generations are globally unique and monotonic — never recycled
// across editors — so a cache keyed on a generation can never collide
// with a different editing session's (closing and reopening an editor
// on the same cell restarts nothing).
var editorGen atomic.Uint64

// Generation returns the edit generation: it increases on every
// mutating editing operation, so an unchanged generation guarantees an
// unchanged cell, and it is unique across all editors ever created in
// the process. Consumers key caches on it (pointing index, display
// cull indexes, the verifier's report cache).
func (e *Editor) Generation() uint64 { return e.gen }

// NewEditor opens a composition cell for editing.
func NewEditor(d *Design, cell *Cell) (*Editor, error) {
	if cell.Kind != Composition {
		return nil, fmt.Errorf("core: cannot edit leaf cell %q (Riot edits composition cells only)", cell.Name)
	}
	// seed with a fresh global generation so caches keyed on a prior
	// editing session can never collide with this one
	e := &Editor{Design: d, Cell: cell, gen: editorGen.Add(1)}
	e.indexNames()
	return e, nil
}

// Instance finds an instance of the cell under edit by name in
// constant time.
func (e *Editor) Instance(name string) (*Instance, bool) {
	in, ok := e.byName[name]
	return in, ok
}

// indexNames rebuilds the instance name index from the cell.
func (e *Editor) indexNames() {
	e.byName = make(map[string]*Instance, len(e.Cell.Instances))
	for _, in := range e.Cell.Instances {
		e.nameAdded(in)
	}
}

// nameAdded indexes an instance appended to the cell.
func (e *Editor) nameAdded(in *Instance) {
	if _, dup := e.byName[in.Name]; !dup {
		e.byName[in.Name] = in
	}
}

// nameRemoved drops a removed instance from the index, exposing a
// remaining duplicate of its name if there is one.
func (e *Editor) nameRemoved(in *Instance) {
	if e.byName[in.Name] != in {
		return
	}
	delete(e.byName, in.Name)
	for _, x := range e.Cell.Instances {
		if x.Name == in.Name {
			e.byName[x.Name] = x
			return
		}
	}
}

// touch records that the cell under edit changed: it advances the edit
// generation (invalidating the pointing index) and stamps the new
// generation as the edited cell's revision and its design's generation
// — the hooks snapshot builders and content signers watch.
func (e *Editor) touch() {
	e.gen = editorGen.Add(1)
	e.Cell.markRev(e.gen)
	if e.Design != nil {
		e.Design.noteGen(e.gen)
	}
}

// Invalidate marks the cell under edit as externally modified: callers
// that mutate cells or instances directly (rather than through Editor
// methods) must call it. It advances the generation, so
// generation-keyed reports recompute. Because an external mutation may
// have reached any cell below the one under edit, every reachable cell
// gets a fresh revision — long-lived content signers and the
// hierarchical engine's certificate memo recompute instead of serving
// state derived from the old content.
func (e *Editor) Invalidate() {
	e.touch()
	e.indexNames()
	marked := map[*Cell]bool{e.Cell: true}
	for _, in := range e.Cell.Instances {
		markSubtree(in.Cell, e.gen, marked)
	}
}

// markSubtree stamps rev g on every cell reachable from c.
func markSubtree(c *Cell, g uint64, marked map[*Cell]bool) {
	if c == nil || marked[c] {
		return
	}
	marked[c] = true
	c.markRev(g)
	for _, in := range c.Instances {
		markSubtree(in.Cell, g, marked)
	}
}

// HitInstance returns the topmost (last-created, so last-drawn)
// instance whose bounding box contains the design-plane point, or nil.
// Lookups go through a spatial index over the instance boxes instead
// of a linear scan; the index is rebuilt only after an editing
// operation, so repeated pointing at a static cell is O(1) per query.
func (e *Editor) HitInstance(p geom.Point) *Instance {
	insts := e.Cell.Instances
	if e.hitIx == nil || e.hitGen != e.gen || e.hitIx.Len() != len(insts) {
		ix := geom.NewIndex()
		for _, in := range insts {
			ix.Insert(in.BBox())
		}
		ix.Build()
		e.hitIx = ix
		e.hitGen = e.gen
	}
	best := -1
	e.hitIx.QueryPoint(p, func(id int) bool {
		if id > best {
			best = id
		}
		return true
	})
	if best < 0 {
		return nil
	}
	return insts[best]
}

// CreateInstance adds an instance of a named cell to the cell under
// edit. Empty instName generates a name. Replication counts below 1
// are raised to 1; zero spacing on a replicated axis defaults to the
// cell pitch (bounding-box extent), which makes array copies abut —
// "array elements must connect properly by abutment".
func (e *Editor) CreateInstance(cellName, instName string, tr geom.Transform, nx, ny, sx, sy int) (*Instance, error) {
	cell, ok := e.Design.Cell(cellName)
	if !ok {
		return nil, fmt.Errorf("core: no cell %q in the cell menu", cellName)
	}
	if cell.Uses(e.Cell) {
		return nil, fmt.Errorf("core: instantiating %q inside %q would create a hierarchy cycle", cellName, e.Cell.Name)
	}
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	cb := cell.BBox()
	if nx > 1 && sx == 0 {
		sx = cb.W()
	}
	if ny > 1 && sy == 0 {
		sy = cb.H()
	}
	next := e.nextInst
	if instName == "" {
		next++
		instName = fmt.Sprintf("%s_%d", cellName, next)
	}
	if _, dup := e.byName[instName]; dup {
		return nil, fmt.Errorf("core: instance name %q already used in %q", instName, e.Cell.Name)
	}
	in := &Instance{Name: instName, Cell: cell, Tr: tr, Nx: nx, Ny: ny, Sx: sx, Sy: sy}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	e.nextInst = next
	e.touch()
	e.Cell.Instances = append(e.Cell.Instances, in)
	e.nameAdded(in)
	return in, nil
}

// DeleteInstance removes an instance and every pending connection that
// references it.
func (e *Editor) DeleteInstance(in *Instance) error {
	e.touch()
	found := false
	for i, x := range e.Cell.Instances {
		if x == in {
			e.Cell.Instances = append(e.Cell.Instances[:i], e.Cell.Instances[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("core: instance %q is not in %q", in.Name, e.Cell.Name)
	}
	e.nameRemoved(in)
	kept := e.Pending[:0]
	for _, c := range e.Pending {
		if c.From != in && c.To != in {
			kept = append(kept, c)
		}
	}
	e.Pending = kept
	keptDecl := e.Declared[:0]
	for _, c := range e.Declared {
		if c.From != in && c.To != in {
			keptDecl = append(keptDecl, c)
		}
	}
	e.Declared = keptDecl
	return nil
}

// Declare records a connector link as declared design intent without
// running a connection command: the LVS reference netlist treats it
// exactly like a link an ABUT or ROUTE recorded. Connection commands
// call it implicitly; tests (and tools that import designs whose
// assembly history is lost) use it to assert intent directly.
func (e *Editor) Declare(from *Instance, fromConn string, to *Instance, toConn string) error {
	if _, err := from.Connector(fromConn); err != nil {
		return err
	}
	if _, err := to.Connector(toConn); err != nil {
		return err
	}
	// a declaration changes no geometry but does change what verifies:
	// advance the generation so generation-keyed verdicts (LVS) recompute
	e.touch()
	e.Declared = append(e.Declared, Connection{From: from, FromConn: fromConn, To: to, ToConn: toConn})
	return nil
}

// made closes a connection command that succeeded: "after the
// connection specification command, the logical connection information
// is thrown out", so the pending list clears, and the command's
// connector links are retained as declared intent (pure abut links
// carry none and are skipped).
func (e *Editor) made(conns []Connection) {
	e.Pending = nil
	for _, c := range conns {
		if c.FromConn != "" {
			e.Declared = append(e.Declared, c)
		}
	}
}

// MoveInstance translates an instance by d. Note that moving an
// instance can silently destroy a previously made (positional)
// connection — the fundamental Riot limitation the paper discusses.
func (e *Editor) MoveInstance(in *Instance, d geom.Point) {
	in.Tr = in.Tr.Translated(d)
	e.touch()
}

// PlaceInstance sets an instance's transform outright.
func (e *Editor) PlaceInstance(in *Instance, tr geom.Transform) {
	in.Tr = tr
	e.touch()
}

// OrientInstance applies an additional orientation about the
// instance's bounding-box minimum corner, so the instance stays in
// place while turning.
func (e *Editor) OrientInstance(in *Instance, o geom.Orient) {
	before := in.BBox()
	in.Tr = in.Tr.Then(geom.MakeTransform(o, geom.Point{}))
	after := in.BBox()
	in.Tr = in.Tr.Translated(before.Min.Sub(after.Min))
	e.touch()
}

// Replicate sets an instance's array replication. Replication that
// does not validate leaves the instance as it was.
func (e *Editor) Replicate(in *Instance, nx, ny, sx, sy int) error {
	defer e.touch()
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	cb := in.Cell.BBox()
	if nx > 1 && sx == 0 {
		sx = cb.W()
	}
	if ny > 1 && sy == 0 {
		sy = cb.H()
	}
	next := *in
	next.Nx, next.Ny, next.Sx, next.Sy = nx, ny, sx, sy
	if err := next.Validate(); err != nil {
		return err
	}
	in.Nx, in.Ny, in.Sx, in.Sy = nx, ny, sx, sy
	return nil
}

// AddConnection appends a connector-to-connector link to the pending
// list. Riot checks "that the connectors to be joined are on the same
// layer and that they are opposed. That is, that they connect top to
// bottom or left to right."
func (e *Editor) AddConnection(from *Instance, fromConn string, to *Instance, toConn string) error {
	if from == to {
		return fmt.Errorf("core: cannot connect instance %q to itself", from.Name)
	}
	fc, err := from.Connector(fromConn)
	if err != nil {
		return err
	}
	tc, err := to.Connector(toConn)
	if err != nil {
		return err
	}
	if fc.Layer != tc.Layer {
		return fmt.Errorf("core: %s.%s is on %v but %s.%s is on %v (connectors must be on the same layer)",
			from.Name, fromConn, fc.Layer, to.Name, toConn, tc.Layer)
	}
	if !geom.Opposed(fc.Side, tc.Side) {
		return fmt.Errorf("core: %s.%s (%v) and %s.%s (%v) are not opposed (they must connect top to bottom or left to right)",
			from.Name, fromConn, fc.Side, to.Name, toConn, tc.Side)
	}
	if err := e.checkOneToMany(from); err != nil {
		return err
	}
	e.Pending = append(e.Pending, Connection{From: from, FromConn: fromConn, To: to, ToConn: toConn})
	return nil
}

// AddAbutLink appends a pure abutment link (no connectors).
func (e *Editor) AddAbutLink(from, to *Instance) error {
	if from == to {
		return fmt.Errorf("core: cannot abut instance %q to itself", from.Name)
	}
	if err := e.checkOneToMany(from); err != nil {
		return err
	}
	e.Pending = append(e.Pending, Connection{From: from, To: to})
	return nil
}

// checkOneToMany enforces Riot's one-to-many restriction: the pending
// list may only hold connections from a single from-instance at a
// time. ("This one-to-many restriction simplified the routing
// algorithm immensely.") A many-to-many connection is made by wrapping
// one of the sets in its own composition cell.
func (e *Editor) checkOneToMany(from *Instance) error {
	for _, c := range e.Pending {
		if c.From != from {
			return fmt.Errorf("core: pending connections already run from %q; connections are one-to-many (finish or clear them first)",
				c.From.Name)
		}
	}
	return nil
}

// AddBus makes "a bus-type connection in which all connections are
// made from one instance to another": every exposed connector pair
// with matching layers on facing edges is linked, paired in order
// along the edge. It returns the number of links made.
func (e *Editor) AddBus(from, to *Instance) (int, error) {
	if from == to {
		return 0, fmt.Errorf("core: cannot bus-connect instance %q to itself", from.Name)
	}
	if err := e.checkOneToMany(from); err != nil {
		return 0, err
	}
	fromSide := facingSide(from.BBox(), to.BBox())
	if fromSide == geom.SideNone {
		return 0, fmt.Errorf("core: %q and %q do not face each other", from.Name, to.Name)
	}
	toSide := fromSide.Opposite()
	fcs := connsOnSide(from, fromSide)
	tcs := connsOnSide(to, toSide)
	if len(fcs) == 0 || len(tcs) == 0 {
		return 0, fmt.Errorf("core: no facing connectors between %q (%v edge) and %q (%v edge)",
			from.Name, fromSide, to.Name, toSide)
	}
	n := min(len(fcs), len(tcs))
	made := 0
	for i := 0; i < n; i++ {
		if fcs[i].Layer != tcs[i].Layer {
			continue
		}
		e.Pending = append(e.Pending, Connection{From: from, FromConn: fcs[i].Name, To: to, ToConn: tcs[i].Name})
		made++
	}
	if made == 0 {
		return 0, fmt.Errorf("core: bus connection found no layer-compatible pairs between %q and %q", from.Name, to.Name)
	}
	return made, nil
}

// DeleteConnection removes entry i of the pending list.
func (e *Editor) DeleteConnection(i int) error {
	if i < 0 || i >= len(e.Pending) {
		return fmt.Errorf("core: no pending connection %d", i)
	}
	e.Pending = append(e.Pending[:i], e.Pending[i+1:]...)
	return nil
}

// ClearConnections empties the pending list.
func (e *Editor) ClearConnections() { e.Pending = nil }

// pendingFrom gathers the pending connections, all from one instance
// by the one-to-many rule. The list stays until the command succeeds
// (made): a connection command that fails leaves the design, the
// pending list and the name counters as it found them.
func (e *Editor) pendingFrom() (*Instance, []Connection, error) {
	if len(e.Pending) == 0 {
		return nil, nil, fmt.Errorf("core: the pending connection list is empty")
	}
	return e.Pending[0].From, e.Pending, nil
}

// facingSide returns the side of box a that faces box b (by center
// displacement), or SideNone when the centers coincide.
func facingSide(a, b geom.Rect) geom.Side {
	ca, cb := a.Center(), b.Center()
	dx, dy := cb.X-ca.X, cb.Y-ca.Y
	if dx == 0 && dy == 0 {
		return geom.SideNone
	}
	if abs(dx) >= abs(dy) {
		if dx > 0 {
			return geom.SideRight
		}
		return geom.SideLeft
	}
	if dy > 0 {
		return geom.SideTop
	}
	return geom.SideBottom
}

// connsOnSide returns an instance's connectors on one (parent-space)
// side, ordered along the edge.
func connsOnSide(in *Instance, side geom.Side) []InstConn {
	var out []InstConn
	for _, ic := range in.Connectors() {
		if ic.Side == side {
			out = append(out, ic)
		}
	}
	// order along the edge: by y for vertical edges, x for horizontal
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			var less bool
			if side.Horizontal() {
				less = out[j].At.Y < out[j-1].At.Y
			} else {
				less = out[j].At.X < out[j-1].At.X
			}
			if !less {
				break
			}
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
