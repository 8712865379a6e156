package core_test

import (
	"testing"

	"riot/internal/filter"
)

// TestFig10ConnectorLookupAllocs pins that resolving a connector of
// the figure-10 chip's LOGIC instance, a composition of compositions,
// allocates nothing once its memo is current, for both chip variants.
func TestFig10ConnectorLookupAllocs(t *testing.T) {
	for _, variant := range []filter.Variant{filter.Routed, filter.Stretched} {
		_, chip, _, err := filter.BuildChip(variant)
		if err != nil {
			t.Fatal(err)
		}
		logic, ok := chip.InstanceByName("core")
		if !ok || logic.Cell.Name != "LOGIC" {
			t.Fatalf("%v: no LOGIC instance named core", variant)
		}
		conns := logic.Connectors()
		if len(conns) == 0 {
			t.Fatalf("%v: LOGIC exports no connectors", variant)
		}
		for _, name := range []string{"sr.PHI1[0]", conns[len(conns)-1].Name} {
			if _, err := logic.Connector(name); err != nil {
				t.Fatalf("%v: %v", variant, err)
			}
			if n := testing.AllocsPerRun(100, func() { _, _ = logic.Connector(name) }); n != 0 {
				t.Errorf("%v: core.Connector(%q) allocates %.1f times per call", variant, name, n)
			}
		}
	}
}
