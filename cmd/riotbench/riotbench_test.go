package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks the
// output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specMetric struct{ Name, Unit string }

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// TestSmoke runs every workload, untraced and traced, on tiny designs
// for a few dozen milliseconds each, and checks the structure of the
// JSON result line: every metric BENCHMARK.json names is emitted with
// its unit, every verdict matched the flat oracle, no op failed, and the
// trace covers at least 90% of the traced ops' wall time. It asserts no
// wall-clock value.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, riotbench runs %d", len(spec.Workloads), len(workloads))
	}

	cfg := defaultConfig()
	cfg.seconds = 0.05
	cfg.setups, cfg.setupTime = 1, 0
	cfg.workDir = t.TempDir()
	cfg.editN, cfg.serveN, cfg.serveArr, cfg.oracleN = 4, 4, 16, 2
	cfg.signoffN = map[string]int{"signoff_32": 4, "signoff_128": 16}

	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is not a riotbench workload", sw.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			cfg.traced = traced
			r, err := runWorkload(cfg, w)
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
				continue
			}
			var out bytes.Buffer
			if err := r.report(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result object: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d (mismatches %d of %d checked)",
					w.name, traced, res.Correct, res.Attempted, res.Failed, r.mismatches, r.checked)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, BENCHMARK.json says %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if traced {
				if cov := res.Metrics["trace.coverage"].Value; cov < 0.90 {
					t.Errorf("%s: trace.coverage %.3f < 0.90", w.name, cov)
				}
			}
		}
	}
}

// TestEditGenPairs pins the edit trace's shape: every do is followed by
// its undo, so replaying any even prefix leaves the grid as it began.
func TestEditGenPairs(t *testing.T) {
	g := newEditGen(newRun(defaultConfig(), workloads[0]).rng, 4)
	for i := 0; i < 200; i += 2 {
		do, undo := g.next(), g.next()
		f, u := strings.Fields(do), strings.Fields(undo)
		switch f[0] {
		case "MOVE":
			if u[0] != "MOVE" || u[1] != f[1] || u[2] != neg(f[2]) || u[3] != neg(f[3]) {
				t.Fatalf("op %d: %q is not undone by %q", i, do, undo)
			}
		case "ORIENT":
			if do != undo {
				t.Fatalf("op %d: %q is not undone by %q", i, do, undo)
			}
		case "DELETE":
			if u[0] != "CREATE" || u[2] != f[1] {
				t.Fatalf("op %d: %q is not undone by %q", i, do, undo)
			}
		default:
			t.Fatalf("op %d: unexpected edit %q", i, do)
		}
	}
}

func neg(s string) string {
	switch {
	case s == "0":
		return s
	case strings.HasPrefix(s, "-"):
		return s[1:]
	}
	return "-" + s
}
