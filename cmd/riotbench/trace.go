package main

import (
	"strings"
	"time"

	"riot/internal/obs"
)

// Harness-side layer spans. The pipeline's own obs spans cover
// verification (verify, hier, flatten, extract, drc, lvs); the calls a
// workload makes around them — editing commands, snapshots, assembly,
// CIF export, opening a store, server round trips — are wrapped here,
// so the span tree of each traced op accounts for its whole latency.
const (
	spanEdit     = "core.edit"
	spanSnapshot = "core.snapshot"
	spanAssemble = "core.assemble"
	spanExport   = "cif.export"
	spanOpen     = "castore.open"
	spanSession  = "session.new"
	spanDo       = "serve.do."
)

// selfLayer maps a span name to the per-layer metric its self time
// (duration minus its children's) is charged to. Every name the
// pipeline or the harness records must map, or trace.coverage drops.
func selfLayer(name string) (string, bool) {
	switch name {
	case spanEdit, spanSnapshot, spanAssemble, spanExport, spanOpen, spanSession:
		return name + "_ms", true
	case "verify":
		return "verify.self_ms", true
	case "materialize":
		return "verify.materialize_ms", true
	case "hier":
		return "hier.self_ms", true
	case "fast":
		return "hier.fast_ms", true
	case "certs":
		// certificate lookup: memo probes, signing, store loads and
		// stores (the per-cell "cert disk" span is an instant marker)
		return "hier.cert_disk_ms", true
	case "compose":
		return "hier.compose_ms", true
	case "quarantine":
		return "hier.quarantine_ms", true
	case "width":
		return "hier.width_ms", true
	case "spacing":
		return "hier.spacing_ms", true
	case "surround":
		return "hier.surround_ms", true
	case "extract":
		return "extract.ms", true
	case "drc":
		return "drc.ms", true
	case "lvs":
		return "lvs.self_ms", true
	case "reference":
		return "lvs.reference_ms", true
	case "match":
		return "lvs.match_ms", true
	}
	switch {
	case strings.HasPrefix(name, "cert build "):
		return "hier.cert_build_ms", true
	case strings.HasPrefix(name, "cert disk "):
		return "hier.cert_disk_ms", true
	case strings.HasPrefix(name, spanDo):
		return "serve.self_ms", true
	}
	return "", false
}

// layerAcc accumulates the traced half of a run's ops: span self times
// per layer, a few inclusive stage times, the pipeline's registry
// counters, and the traced vs untraced latency of the primary series.
type layerAcc struct {
	ops      int
	wall     time.Duration
	covered  time.Duration // root spans' wall time
	self     map[string]time.Duration
	incl     map[string]time.Duration
	unmapped time.Duration
	raw      map[string]float64 // registry counters summed over traced ops
	calls    map[string]samples // per-call latencies (serve.do_ms.*)

	storeHitRate, storeMB float64 // serve_mix's shared store

	traced, untraced samples // primary-series latency by half
}

func newLayerAcc() layerAcc {
	return layerAcc{
		self:  map[string]time.Duration{},
		incl:  map[string]time.Duration{},
		raw:   map[string]float64{},
		calls: map[string]samples{},
	}
}

// cumulative lists the registry counters that only grow within a
// session; a traced op is charged their delta.
var cumulative = []struct{ sec, key string }{
	{"verify", "hier"}, {"verify", "full"}, {"verify", "spliced"},
	{"hier", "cert_built"}, {"hier", "template_built"}, {"hier", "fallbacks"}, {"hier", "quarantined"},
	{"lvs", "matched"},
	{"castore", "hits"}, {"castore", "misses"}, {"castore", "puts"}, {"castore", "corrupt"},
}

// addStats charges one traced op's registry counters: the delta of the
// cumulative ones between before (nil for a session the op opened) and
// after, plus the per-run flatten and LVS figures when the op's trace
// shows that stage ran.
func (a *layerAcc) addStats(before, after *obs.Snapshot, t *obs.Trace) {
	get := func(s *obs.Snapshot, sec, key string) float64 {
		if s == nil {
			return 0
		}
		v, _ := s.Get(sec, key)
		return float64(v)
	}
	for _, c := range cumulative {
		a.raw[c.sec+"."+c.key] += get(after, c.sec, c.key) - get(before, c.sec, c.key)
	}
	if traceHas(t, "flatten") {
		a.raw["flatten.reflattened"] += get(after, "flatten", "reflattened")
		a.raw["flatten.disk_loaded"] += get(after, "flatten", "disk_loaded")
	}
	if traceHas(t, "match") {
		a.raw["lvs.checks"]++
		a.raw["lvs.occurrences"] += get(after, "lvs", "occurrences")
		a.raw["lvs.certified"] += get(after, "lvs", "certified")
		a.raw["lvs.fallback"] += get(after, "lvs", "fallback")
	}
}

func traceHas(t *obs.Trace, name string) bool {
	for _, sp := range t.Roots() {
		if sp.Find(name) != nil {
			return true
		}
	}
	return false
}

// addCalls merges a client's traced per-call latencies.
func (a *layerAcc) addCalls(calls map[string]samples) {
	for k, s := range calls {
		a.calls[k] = append(a.calls[k], s...)
	}
}

// addTrace charges one traced op's span tree.
func (a *layerAcc) addTrace(t *obs.Trace, wall time.Duration) {
	a.ops++
	a.wall += wall
	for _, sp := range t.Roots() {
		a.covered += sp.Dur()
		a.walk(sp)
	}
}

func (a *layerAcc) walk(sp *obs.Span) {
	name, d := sp.Name(), sp.Dur()
	if name == "flatten" {
		// flatten fans shards out concurrently (Span.Child), so child
		// durations may overlap; charge the stage whole, children and all
		a.self["flatten.ms"] += d
		return
	}
	kids := sp.Children()
	var kd, verifyKids time.Duration
	for _, c := range kids {
		kd += c.Dur()
		if c.Name() == "verify" {
			verifyKids += c.Dur()
		}
	}
	self := d - kd
	if self < 0 {
		self = 0
	}
	if layer, ok := selfLayer(name); ok {
		a.self[layer] += self
	} else {
		a.unmapped += self
	}
	switch name {
	case "verify":
		a.incl["verify.verify_ms"] += d
	case "lvs":
		// LVS-only: the verify call CheckSnapshot makes first is
		// charged to verify.verify_ms
		a.incl["lvs.check_ms"] += d - verifyKids
	}
	for _, c := range kids {
		a.walk(c)
	}
}

// coverage is the share of traced op wall time spent inside a mapped
// span: the root spans' time minus the self time of spans no layer
// claims.
func (a *layerAcc) coverage() float64 {
	if a.wall <= 0 {
		return 0
	}
	return float64(a.covered-a.unmapped) / float64(a.wall)
}

func (a *layerAcc) overhead() float64 {
	u := a.untraced.quantile(0.5)
	if u == 0 {
		return 0
	}
	return a.traced.quantile(0.5)/u - 1
}

// timeLayers lists every per-layer time metric the benchmark reports.
var timeLayers = []string{
	"core.edit_ms", "core.snapshot_ms", "core.assemble_ms", "cif.export_ms",
	"castore.open_ms", "session.new_ms", "serve.self_ms",
	"verify.self_ms", "verify.materialize_ms",
	"hier.self_ms", "hier.fast_ms", "hier.cert_disk_ms", "hier.cert_build_ms",
	"hier.compose_ms", "hier.quarantine_ms", "hier.width_ms", "hier.spacing_ms", "hier.surround_ms",
	"extract.ms", "drc.ms", "flatten.ms",
	"lvs.self_ms", "lvs.reference_ms", "lvs.match_ms",
}

// perOpCounts are the registry counters reported per traced op.
var perOpCounts = []string{
	"hier.cert_built", "hier.template_built", "hier.fallbacks", "hier.quarantined",
	"flatten.reflattened", "flatten.disk_loaded", "lvs.matched", "castore.puts", "castore.corrupt",
}

// resultLayers is the subset of the per-layer metrics the JSON result
// line of a traced run carries (BENCHMARK.json's per_layer list): stage
// times every workload reaches, in ms per op; for layers only some
// workloads reach, their share of op wall time instead, so no time
// metric reads a constant 0; then counters and ratios.
var resultLayers = []string{
	"verify.verify_ms", "verify.materialize_ms", "hier.compose_ms", "hier.width_ms", "hier.spacing_ms",
	"hier.cert_disk_ms", "flatten.ms", "lvs.check_ms", "lvs.reference_ms", "lvs.match_ms",
	"core.edit.share", "core.snapshot.share", "core.assemble.share", "cif.export.share",
	"castore.open.share", "session.new.share", "serve.self.share",
	"hier.fast.share", "hier.cert_build.share", "extract.share", "drc.share",
	"verify.flat_splice_ratio",
	"hier.cert_built", "hier.template_built", "hier.fallbacks", "hier.quarantined",
	"flatten.reflattened", "flatten.disk_loaded", "lvs.matched", "castore.puts", "castore.corrupt",
	"verify.hier_frac", "lvs.certified_frac", "lvs.fallback_frac", "castore.hit_rate",
	"store.hit_rate", "store.bytes_mb",
	"trace.coverage", "trace.overhead_frac",
}

// metrics renders every per-layer metric of a traced run: span self
// times in ms per traced op and as shares of op wall time, inclusive
// stage times, server round trips, counters per op, ratios, and the
// coverage and overhead of the trace itself. The list is the same on
// every workload; a layer a workload never reaches reads 0.
func (a *layerAcc) metrics() []metric {
	per := func(v float64) float64 { return frac(v, float64(a.ops)) }
	var out []metric
	for _, name := range timeLayers {
		out = append(out, metric{name, per(ms(a.self[name])), "ms"})
	}
	for _, name := range timeLayers {
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_ms"), ".ms")
		out = append(out, metric{base + ".share", frac(float64(a.self[name]), float64(a.wall)), "frac"})
	}
	out = append(out,
		metric{"verify.verify_ms", per(ms(a.incl["verify.verify_ms"])), "ms"},
		metric{"lvs.check_ms", per(ms(a.incl["lvs.check_ms"])), "ms"},
		metric{"verify.flat_splice_ms", per(ms(a.incl["verify.flat_splice_ms"])), "ms"},
		metric{"verify.flat_splice_ratio", frac(float64(a.incl["verify.flat_splice_ms"]), float64(a.incl["verify.verify_ms"])), "ratio"},
	)
	for _, kind := range []string{"edit", "drc", "lvs", "create"} {
		out = append(out, metric{"serve.do_ms." + kind, a.calls["serve.do_ms."+kind].quantile(0.5), "ms"})
	}
	for _, name := range perOpCounts {
		out = append(out, metric{name, per(a.raw[name]), "count"})
	}
	r := a.raw
	out = append(out,
		metric{"verify.hier_frac", frac(r["verify.hier"], r["verify.hier"]+r["verify.full"]+r["verify.spliced"]), "frac"},
		metric{"lvs.certified_frac", frac(r["lvs.certified"], r["lvs.occurrences"]), "frac"},
		metric{"lvs.fallback_frac", frac(r["lvs.fallback"], r["lvs.checks"]), "frac"},
		metric{"castore.hit_rate", frac(r["castore.hits"], r["castore.hits"]+r["castore.misses"]), "frac"},
		metric{"store.hit_rate", a.storeHitRate, "frac"},
		metric{"store.bytes_mb", a.storeMB, "MB"},
		metric{"trace.coverage", a.coverage(), "frac"},
		metric{"trace.overhead_frac", a.overhead(), "frac"},
		metric{"trace.unmapped_ms", per(ms(a.unmapped)), "ms"},
	)
	return out
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// pick returns the named metrics from all, in the order of names.
func pick(all []metric, names []string) []metric {
	byName := make(map[string]metric, len(all))
	for _, m := range all {
		byName[m.Name] = m
	}
	out := make([]metric, 0, len(names))
	for _, n := range names {
		out = append(out, byName[n])
	}
	return out
}
