// Package ui implements Riot's graphical command interface on the
// simulated workstation. The screen follows the paper's figure 2: "a
// large editing area next to two small menu areas along the right edge
// of the screen. The editing area shows the contents of the cell under
// edit. The upper menu area contains the names of the cells which are
// currently defined and which may be instantiated. The lower menu
// contains graphical editing commands which are invoked by pointing at
// them."
//
// Every graphical gesture resolves to a textual shell command, so the
// pointer-driven session is journaled exactly like a keyboard session —
// which is what makes REPLAY work for graphical editing too.
package ui

import (
	"fmt"
	"strings"

	"riot/internal/core"
	"riot/internal/display"
	"riot/internal/geom"
	"riot/internal/raster"
	"riot/internal/rules"
	"riot/internal/shell"
	"riot/internal/workstation"
)

// Tool is the currently armed graphical command.
type Tool uint8

// The pointer tools. Immediate commands (ABUT, ROUTE, STRETCH, zoom
// and pan) execute on menu click and do not arm a tool.
const (
	ToolNone Tool = iota
	ToolCreate
	ToolMove
	ToolOrient
	ToolDelete
	ToolConnect
)

func (t Tool) String() string {
	switch t {
	case ToolCreate:
		return "CREATE"
	case ToolMove:
		return "MOVE"
	case ToolOrient:
		return "ORIENT"
	case ToolDelete:
		return "DELETE"
	case ToolConnect:
		return "CONNECT"
	default:
		return "-"
	}
}

// menu entries, in display order
var commandMenu = []string{
	"CREATE", "MOVE", "ORIENT", "DELETE", "CONNECT",
	"ABUT", "OVERLAP", "ROUTE", "STRETCH",
	"ZOOM IN", "ZOOM OUT", "PAN L", "PAN R", "PAN U", "PAN D",
	"FIT", "NAMES",
}

// UI is one graphical editing session bound to a workstation and a
// shell.
type UI struct {
	WS   *workstation.Workstation
	Sh   *shell.Shell
	View display.View

	Selected  string // cell selected in the cell menu
	ShowNames bool
	Status    string

	tool      Tool
	moveInst  string // instance picked up by MOVE, awaiting destination
	connFrom  string // "inst.conn" picked as connection source
	fitNeeded bool

	// draw carries cull indexes and derived geometry across frames,
	// keyed on the editor's edit generation: pan and zoom of a static
	// cell redraw without re-binning any array.
	draw *display.Cache
}

// New opens the graphical editor on a workstation. The shell must
// already be editing a cell (EDIT <name>).
func New(ws *workstation.Workstation, sh *shell.Shell) (*UI, error) {
	if sh.Editor == nil {
		return nil, fmt.Errorf("ui: no cell under edit")
	}
	u := &UI{WS: ws, Sh: sh, fitNeeded: true, draw: display.NewCache()}
	u.Fit()
	return u, nil
}

// Layout returns the three screen regions of figure 2: the editing
// area and the two menus on the right edge.
func (u *UI) Layout() (edit, cellMenu, cmdMenu geom.Rect) {
	w, h := u.WS.Screen.W, u.WS.Screen.H
	menuW := w / 4
	if menuW < 120 {
		menuW = 120
	}
	edit = geom.R(0, 0, w-menuW-1, h-1)
	cellMenu = geom.R(w-menuW, 0, w-1, h/2-1)
	cmdMenu = geom.R(w-menuW, h/2, w-1, h-1)
	return edit, cellMenu, cmdMenu
}

// Fit zooms the view to show the whole cell under edit.
func (u *UI) Fit() {
	edit, _, _ := u.Layout()
	box := u.Sh.Editor.Cell.BBox()
	if box.Empty() {
		box = geom.R(0, 0, 100*rules.Lambda, 100*rules.Lambda)
	}
	u.View = display.FitView(box, edit.Inset(4), true)
}

// Render paints the whole screen: editing area, menus, pending
// connection list and status line.
func (u *UI) Render() {
	im := u.WS.Screen
	im.Clear(geom.ColorBlack)
	edit, cellMenu, cmdMenu := u.Layout()

	// editing area
	display.DrawCellCached(display.RasterCanvas{Im: im}, u.View, u.Sh.Editor.Cell,
		display.Options{ShowNames: u.ShowNames}, u.draw, u.Sh.Editor.Generation())
	im.Rect(edit, geom.ColorWhite)

	// cell menu
	im.Rect(cellMenu, geom.ColorWhite)
	y := cellMenu.Min.Y + 3
	im.Text(cellMenu.Min.X+3, y, "CELLS", geom.ColorYellow)
	y += raster.GlyphHeight + 3
	for _, name := range u.Sh.Design.CellNames() {
		c := geom.ColorWhite
		if name == u.Selected {
			c = geom.ColorGreen
		}
		im.Text(cellMenu.Min.X+3, y, name, c)
		y += raster.GlyphHeight + 2
		if y > cellMenu.Max.Y-raster.GlyphHeight {
			break
		}
	}

	// command menu
	im.Rect(cmdMenu, geom.ColorWhite)
	y = cmdMenu.Min.Y + 3
	im.Text(cmdMenu.Min.X+3, y, "COMMANDS", geom.ColorYellow)
	y += raster.GlyphHeight + 3
	for _, name := range commandMenu {
		c := geom.ColorWhite
		if name == u.tool.String() {
			c = geom.ColorGreen
		}
		im.Text(cmdMenu.Min.X+3, y, name, c)
		y += raster.GlyphHeight + 2
		if y > cmdMenu.Max.Y-raster.GlyphHeight {
			break
		}
	}

	// the pending connection list "is shown on the screen constantly"
	y = edit.Min.Y + 3
	for i, cn := range u.Sh.Editor.Pending {
		im.Text(edit.Min.X+3, y, fmt.Sprintf("%d: %s", i, cn), geom.ColorCyan)
		y += raster.GlyphHeight + 1
	}

	// status line
	im.Text(edit.Min.X+3, edit.Max.Y-raster.GlyphHeight-2, u.Status, geom.ColorYellow)
}

// cellMenuHit returns the cell name at a menu position, if any.
func (u *UI) cellMenuHit(at geom.Point) (string, bool) {
	_, cellMenu, _ := u.Layout()
	if !cellMenu.Contains(at) {
		return "", false
	}
	row := (at.Y - cellMenu.Min.Y - 3 - raster.GlyphHeight - 3) / (raster.GlyphHeight + 2)
	names := u.Sh.Design.CellNames()
	if row < 0 || row >= len(names) {
		return "", false
	}
	return names[row], true
}

// cmdMenuHit returns the command name at a menu position, if any.
func (u *UI) cmdMenuHit(at geom.Point) (string, bool) {
	_, _, cmdMenu := u.Layout()
	if !cmdMenu.Contains(at) {
		return "", false
	}
	row := (at.Y - cmdMenu.Min.Y - 3 - raster.GlyphHeight - 3) / (raster.GlyphHeight + 2)
	if row < 0 || row >= len(commandMenu) {
		return "", false
	}
	return commandMenu[row], true
}

// HandleEvent processes one input event; button releases trigger
// actions. It returns an error only for internal failures — user-level
// problems land in the status line, like the original's message area.
func (u *UI) HandleEvent(ev workstation.Event) error {
	if ev.Kind != workstation.ButtonUp {
		return nil
	}
	if name, ok := u.cellMenuHit(ev.At); ok {
		u.Selected = name
		u.Status = "selected " + name
		return nil
	}
	if cmd, ok := u.cmdMenuHit(ev.At); ok {
		return u.menuCommand(cmd)
	}
	edit, _, _ := u.Layout()
	if edit.Contains(ev.At) {
		return u.editClick(ev.At)
	}
	return nil
}

// RunPending drains the workstation queue through HandleEvent and
// re-renders.
func (u *UI) RunPending() error {
	for {
		ev, ok := u.WS.Poll()
		if !ok {
			break
		}
		if err := u.HandleEvent(ev); err != nil {
			return err
		}
	}
	u.Render()
	return nil
}

func (u *UI) menuCommand(cmd string) error {
	switch cmd {
	case "CREATE":
		u.tool = ToolCreate
	case "MOVE":
		u.tool = ToolMove
		u.moveInst = ""
	case "ORIENT":
		u.tool = ToolOrient
	case "DELETE":
		u.tool = ToolDelete
	case "CONNECT":
		u.tool = ToolConnect
		u.connFrom = ""
	case "ABUT":
		u.exec("ABUT")
	case "OVERLAP":
		u.exec("ABUT OVERLAP")
	case "ROUTE":
		u.exec("ROUTE")
	case "STRETCH":
		u.exec("STRETCH")
	case "ZOOM IN":
		u.View.Zoom(2, 3)
	case "ZOOM OUT":
		u.View.Zoom(3, 2)
	case "PAN L":
		u.View.Pan(-1, 0, 4)
	case "PAN R":
		u.View.Pan(1, 0, 4)
	case "PAN U":
		u.View.Pan(0, 1, 4)
	case "PAN D":
		u.View.Pan(0, -1, 4)
	case "FIT":
		u.Fit()
	case "NAMES":
		u.ShowNames = !u.ShowNames
	}
	if u.tool != ToolNone {
		u.Status = u.tool.String()
	}
	return nil
}

// exec runs a shell command, reporting failures in the status line.
func (u *UI) exec(cmd string) error {
	if err := u.Sh.Exec(cmd); err != nil {
		u.Status = err.Error()
		return nil
	}
	u.Status = cmd
	return nil
}

// editClick handles a pointer click in the editing area according to
// the armed tool.
func (u *UI) editClick(at geom.Point) error {
	design := u.View.ToDesign(at)
	lx, ly := roundLambda(design.X), roundLambda(design.Y)

	switch u.tool {
	case ToolCreate:
		if u.Selected == "" {
			u.Status = "select a cell first"
			return nil
		}
		return u.exec(fmt.Sprintf("CREATE %s AT %d %d", u.Selected, lx, ly))

	case ToolMove:
		if u.moveInst == "" {
			in := u.hitInstance(design)
			if in == nil {
				u.Status = "no instance there"
				return nil
			}
			u.moveInst = in.Name
			u.Status = "moving " + in.Name
			return nil
		}
		inst, _ := u.Sh.Editor.Instance(u.moveInst)
		if inst == nil {
			u.moveInst = ""
			return nil
		}
		cur := inst.BBox().Min
		name := u.moveInst
		u.moveInst = ""
		return u.exec(fmt.Sprintf("MOVE %s %d %d", name,
			lx-roundLambda(cur.X), ly-roundLambda(cur.Y)))

	case ToolOrient:
		if in := u.hitInstance(design); in != nil {
			return u.exec(fmt.Sprintf("ORIENT %s R90", in.Name))
		}
		u.Status = "no instance there"

	case ToolDelete:
		if in := u.hitInstance(design); in != nil {
			return u.exec("DELETE " + in.Name)
		}
		u.Status = "no instance there"

	case ToolConnect:
		ref, ok := u.nearestConnector(design)
		if !ok {
			u.Status = "no connector there"
			return nil
		}
		if u.connFrom == "" {
			u.connFrom = ref
			u.Status = "from " + ref
			return nil
		}
		from := u.connFrom
		u.connFrom = ""
		return u.exec(fmt.Sprintf("CONNECT %s %s", from, ref))

	default:
		// pointing with no tool identifies what is under the cursor
		if in := u.hitInstance(design); in != nil {
			u.Status = in.Name + ":" + in.Cell.Name
		} else {
			u.Status = ""
		}
	}
	return nil
}

// hitInstance finds the topmost (last-drawn) instance whose bounding
// box contains the design point, through the editor's generation-keyed
// spatial index — pointing around a static cell never rescans the
// instance list.
func (u *UI) hitInstance(p geom.Point) *core.Instance {
	return u.Sh.Editor.HitInstance(p)
}

// nearestConnector finds the closest instance connector within a
// 4-lambda pointing radius and returns its "inst.conn" reference.
func (u *UI) nearestConnector(p geom.Point) (string, bool) {
	best := 4 * rules.Lambda
	ref := ""
	for _, in := range u.Sh.Editor.Cell.Instances {
		for _, ic := range in.Connectors() {
			if d := ic.At.ManhattanDist(p); d < best {
				best = d
				ref = in.Name + "." + ic.Name
			}
		}
	}
	return ref, ref != ""
}

// roundLambda converts centimicrons to the nearest lambda.
func roundLambda(cm int) int {
	if cm >= 0 {
		return (cm + rules.Lambda/2) / rules.Lambda
	}
	return -((-cm + rules.Lambda/2) / rules.Lambda)
}

// Screenshot writes the current screen as a PPM image via the shell's
// file writer.
func (u *UI) Screenshot(name string) error {
	if u.Sh.WriteFile == nil {
		return fmt.Errorf("ui: no file writer attached")
	}
	var b strings.Builder
	u.Render()
	if err := u.WS.Screen.WritePPM(&b); err != nil {
		return err
	}
	return u.Sh.WriteFile(name, []byte(b.String()))
}
