package core

import "fmt"

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
// box edge) or an earlier extra holds. The slice is the cell's
// connector memo's; callers must not modify it.
func LabelHead(c *Cell) []Connector {
	if c.Kind == Composition && len(c.ExtraConnectors) == 0 {
		return nil
	}
	return c.memoized().head
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
		conns := in.Cell.memoized().conns
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
