package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Design is Riot's list of cells: everything that has been read in or
// assembled this session, shown to the user in the cell menu and
// available for instantiation.
//
// The cell menu itself (cells/order/next) is not synchronized — a
// server serializes mutating commands with an external lock. The
// snapshot machinery below has its own mutex so any number of readers
// can freeze generations concurrently.
type Design struct {
	cells map[string]*Cell
	order []string
	next  int

	// gen is the design's generation: the highest edit generation any
	// of its editors (or menu operations) have produced. Bumped from the
	// same global counter as editor generations, so generations are
	// unique across a whole process. Accessed atomically.
	gen uint64

	// snapMu guards the copy-on-write snapshot builder. snapGen is the
	// design generation snapB's clones describe.
	snapMu  sync.Mutex
	snapB   *snapBuilder
	snapGen uint64
}

// Generation reports the design's current generation: it changes
// whenever any editor mutates a cell of this design or the menu
// itself changes.
func (d *Design) Generation() uint64 { return atomic.LoadUint64(&d.gen) }

// noteGen records that an edit at generation g touched this design.
func (d *Design) noteGen(g uint64) {
	for {
		cur := atomic.LoadUint64(&d.gen)
		if g <= cur || atomic.CompareAndSwapUint64(&d.gen, cur, g) {
			return
		}
	}
}

// touchMenu bumps the design generation for a menu mutation (cell
// added, deleted or renamed).
func (d *Design) touchMenu() { d.noteGen(editorGen.Add(1)) }

// NewDesign returns an empty design.
func NewDesign() *Design {
	return &Design{cells: map[string]*Cell{}}
}

// AddCell registers a cell under its name. Adding a second cell with
// the same name is an error (rename or delete first).
func (d *Design) AddCell(c *Cell) error {
	if c.Name == "" {
		return fmt.Errorf("core: cell has no name")
	}
	if _, dup := d.cells[c.Name]; dup {
		return fmt.Errorf("core: cell %q already defined", c.Name)
	}
	d.cells[c.Name] = c
	d.order = append(d.order, c.Name)
	d.touchMenu()
	return nil
}

// Cell looks a cell up by name.
func (d *Design) Cell(name string) (*Cell, bool) {
	c, ok := d.cells[name]
	return c, ok
}

// CellNames returns the menu of defined cells, in definition order.
func (d *Design) CellNames() []string {
	return append([]string(nil), d.order...)
}

// DeleteCell removes a cell from the design. It refuses when another
// cell still instantiates it.
func (d *Design) DeleteCell(name string) error {
	victim, ok := d.cells[name]
	if !ok {
		return fmt.Errorf("core: no cell %q", name)
	}
	for _, other := range d.cells {
		if other == victim {
			continue
		}
		for _, in := range other.Instances {
			if in.Cell == victim {
				return fmt.Errorf("core: cell %q is still used by %q", name, other.Name)
			}
		}
	}
	delete(d.cells, name)
	for i, n := range d.order {
		if n == name {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	d.snapMu.Lock()
	if d.snapB != nil {
		d.snapB.forget(victim)
	}
	d.snapMu.Unlock()
	d.touchMenu()
	return nil
}

// RenameCell changes a cell's menu name.
func (d *Design) RenameCell(oldName, newName string) error {
	c, ok := d.cells[oldName]
	if !ok {
		return fmt.Errorf("core: no cell %q", oldName)
	}
	if newName == "" {
		return fmt.Errorf("core: empty cell name")
	}
	if _, dup := d.cells[newName]; dup {
		return fmt.Errorf("core: cell %q already defined", newName)
	}
	delete(d.cells, oldName)
	c.Name = newName
	c.MarkMutated() // snapshot clones copy the name; force a re-clone
	d.cells[newName] = c
	for i, n := range d.order {
		if n == oldName {
			d.order[i] = newName
			break
		}
	}
	d.touchMenu()
	return nil
}

// keepNames undoes the names GenName issued since the counter stood
// at mark when *err is set: deferred by a command that generates a
// cell, so a command that fails consumes no name.
func (d *Design) keepNames(mark int, err *error) {
	if *err != nil {
		d.next = mark
	}
}

// GenName produces a fresh cell name with the given prefix; Riot uses
// it to name the route and stretch cells it creates.
func (d *Design) GenName(prefix string) string {
	for {
		d.next++
		name := fmt.Sprintf("%s%d", prefix, d.next)
		if _, dup := d.cells[name]; !dup {
			return name
		}
	}
}
