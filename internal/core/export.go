package core

import (
	"fmt"

	"riot/internal/cif"
	"riot/internal/geom"
	"riot/internal/sticks"
)

// ExportCIF converts a cell and everything below it into a CIF file
// for mask generation — the path the paper describes: "Riot writes
// composition format files which are converted to CIF".
//
//   - CIF leaf cells are copied in, together with any sub-symbols their
//     geometry calls, renumbered into the output's symbol space;
//   - Sticks leaf cells (including Riot-made route cells) are rendered
//     into mask geometry via the symbolic-to-CIF conversion;
//   - composition cells become symbols containing only calls, with
//     arrays expanded copy by copy (CIF has no array construct).
//
// The root cell is instantiated once at the top level of the file.
func ExportCIF(root *Cell) (*cif.File, error) {
	ex := &exporter{
		out:   &cif.File{},
		ids:   map[*Cell]int{},
		cifID: map[symKey]int{},
	}
	id, err := ex.cell(root)
	if err != nil {
		return nil, err
	}
	ex.out.TopLevel = []cif.Element{cif.Call{SymbolID: id, Transform: geom.Identity}}
	return ex.out, nil
}

type symKey struct {
	file *cif.File
	id   int
}

type exporter struct {
	out   *cif.File
	next  int
	ids   map[*Cell]int  // cell -> output symbol id
	cifID map[symKey]int // foreign CIF symbol -> output symbol id
}

func (ex *exporter) newID() int {
	ex.next++
	return ex.next
}

func (ex *exporter) cell(c *Cell) (int, error) {
	if id, done := ex.ids[c]; done {
		return id, nil
	}
	switch c.Kind {
	case LeafCIF:
		id, err := ex.cifSymbol(c.CIFFile, c.Symbol, c.Name)
		if err != nil {
			return 0, err
		}
		ex.ids[c] = id
		return id, nil

	case LeafSticks:
		id := ex.newID()
		ex.ids[c] = id
		sym, err := sticks.ToCIF(c.Sticks, id)
		if err != nil {
			return 0, err
		}
		ex.out.Symbols = append(ex.out.Symbols, sym)
		return id, nil

	default: // Composition
		id := ex.newID()
		ex.ids[c] = id
		sym := &cif.Symbol{ID: id, A: 1, B: 1, Name: c.Name}
		for _, in := range c.Instances {
			childID, err := ex.cell(in.Cell)
			if err != nil {
				return 0, err
			}
			for i := 0; i < in.Nx; i++ {
				for j := 0; j < in.Ny; j++ {
					sym.Elements = append(sym.Elements, cif.Call{
						SymbolID:  childID,
						Transform: in.CopyTransform(i, j),
					})
				}
			}
		}
		// export the finished connectors so downstream tools keep the
		// logical interface
		for _, cn := range c.Connectors() {
			sym.Elements = append(sym.Elements, cif.Connector{
				Name: cn.Name, At: cn.At, Layer: cn.Layer, Width: cn.Width,
			})
		}
		ex.out.Symbols = append(ex.out.Symbols, sym)
		return id, nil
	}
}

// cifSymbol copies a symbol from a foreign CIF file into the output,
// recursing through its calls and renumbering everything.
func (ex *exporter) cifSymbol(f *cif.File, sym *cif.Symbol, name string) (int, error) {
	key := symKey{f, sym.ID}
	if id, done := ex.cifID[key]; done {
		return id, nil
	}
	id := ex.newID()
	ex.cifID[key] = id
	out := &cif.Symbol{ID: id, A: 1, B: 1, Name: name}
	for _, e := range sym.ResolveScale() {
		if call, isCall := e.(cif.Call); isCall {
			child := f.SymbolByID(call.SymbolID)
			if child == nil {
				return 0, fmt.Errorf("core: export: symbol %d calls undefined symbol %d", sym.ID, call.SymbolID)
			}
			childID, err := ex.cifSymbol(f, child, child.Name)
			if err != nil {
				return 0, err
			}
			call.SymbolID = childID
			out.Elements = append(out.Elements, call)
			continue
		}
		out.Elements = append(out.Elements, e)
	}
	ex.out.Symbols = append(ex.out.Symbols, out)
	return id, nil
}
