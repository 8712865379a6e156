package core

import (
	"fmt"
	"slices"

	"riot/internal/geom"
)

// Label sites. A cell's labels are the connector names a flatten of it
// resolves to nets. Their sites, in walk order, are the connectors
// LabelHead returns, then every top-level instance's visible
// connectors in Instance.Sites order. A label table holds one net per
// site, -1 where the site lies on no material of its layer, so the
// extractor, the hier engine and the LVS reference fill and compare
// tables by index and format no name. A name's net is its last
// resolved site's. A composition's exported instance connectors are no
// sites of their own: each is named again, at the same point on the
// same layer, by its instance's later site, which decides the name
// either way.

// LabelHead returns the connectors that open c's label sites: a leaf's
// own, or the extras a composition keeps and exports, dropping an
// extra whose name an exported instance connector (one on the cell's
// box edge) or an earlier extra holds.
func LabelHead(c *Cell) []Connector {
	if c.Kind != Composition {
		return c.Connectors()
	}
	var out []Connector
	for k, cn := range c.ExtraConnectors {
		named := func(p Connector) bool { return p.Name == cn.Name }
		if !slices.ContainsFunc(c.ExtraConnectors[:k], named) && !c.namesSite(cn.Name) {
			out = append(out, cn)
		}
	}
	return out
}

// LabelMap names a label table of c's current sites: each resolved
// site's net under its name ("inst.CONN" with the copy's array suffix,
// or a head connector's own), a later site overwriting an earlier one
// of the same name. It formats one name per resolved site, so only
// callers that read names build it.
func LabelMap(c *Cell, tab []int32) map[string]int {
	m := make(map[string]int, len(tab))
	s := 0
	for _, cn := range LabelHead(c) {
		if tab[s] >= 0 {
			m[cn.Name] = int(tab[s])
		}
		s++
	}
	var buf []byte
	for _, in := range c.Instances {
		conns := in.Cell.Connectors()
		in.Sites(conns, func(i, j, k int) {
			if n := tab[s]; n >= 0 {
				buf = appendArrayName(append(append(buf[:0], in.Name...), '.'), conns[k].Name, i, j, in.Nx, in.Ny)
				m[string(buf)] = int(n)
			}
			s++
		})
	}
	if s != len(tab) {
		panic(fmt.Sprintf("core: a %d-site label table names %s's %d sites", len(tab), c.Name, s))
	}
	return m
}

// namesSite reports whether a visible connector of one of c's
// instances, on c's box edge, carries the label name. Only instances
// whose name prefixes it are walked, and no name is built.
func (c *Cell) namesSite(name string) bool {
	for _, in := range c.Instances {
		n := len(in.Name)
		if len(name) <= n || name[n] != '.' || name[:n] != in.Name {
			continue
		}
		conns, found := in.Cell.Connectors(), false
		var buf [64]byte
		in.Sites(conns, func(i, j, k int) {
			if !found && string(appendArrayName(buf[:0], conns[k].Name, i, j, in.Nx, in.Ny)) == name[n+1:] {
				found = geom.SideOf(c.BBox(), in.CopyTransform(i, j).Apply(conns[k].At)) != geom.SideNone
			}
		})
		if found {
			return true
		}
	}
	return false
}
