package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"riot/internal/obs"
)

// config sizes one workload run. main fills it from the flags and the
// fixed defaults below; the smoke test shrinks the designs so every
// workload finishes in well under a second.
type config struct {
	seed    int64
	seconds float64 // sets the run's work (see workload.perSecond)
	traced  bool
	// set-up repeats at least setups times and until setupTime has
	// passed (at most maxSetups times); setup_s is the median
	setups    int
	setupTime time.Duration
	workDir   string // scratch root for cache directories

	editN    int // edit_loop grid side
	serveN   int // serve_mix designer grid side
	serveArr int // serve_mix sign-off array side
	oracleN  int // edit ops between flat oracle checks
	signoffN map[string]int
}

func defaultConfig() config {
	return config{
		seed:      1982,
		seconds:   15,
		setups:    3,
		setupTime: time.Second,
		workDir:   ".bench_build",
		editN:     32,
		serveN:    16,
		serveArr:  64,
		oracleN:   10,
		signoffN:  map[string]int{"signoff_32": 32, "signoff_128": 128},
	}
}

// workload is one scenario. primary and secondary name the two
// latency series the JSON result's verdict_ms / verdict2_ms metrics
// report; rate names its printed throughput. perSecond fixes
// the run's work: -seconds times perSecond loop iterations (edits,
// sign-off pairs, designer ops, chips), about the rate a 2-vCPU machine
// sustains, so a run measures about -seconds there and every commit and
// seed does the same number of ops.
type workload struct {
	name                     string
	primary, secondary, rate string
	perSecond                float64
	run                      func(r *run) error
}

var workloads = []workload{
	{"edit_loop", "edit_drc_ms", "edit_lvs_ms", "edits_per_s", 45, runEditLoop},
	{"signoff_32", "signoff_warm_ms", "signoff_cold_ms", "signoffs_per_s", 16, runSignoff},
	{"signoff_128", "signoff_warm_ms", "signoff_cold_ms", "signoffs_per_s", 1.4, runSignoff},
	{"serve_mix", "edit_drc_ms", "session_ms", "sessions_per_s", 120, runServeMix},
	{"assemble_fig10", "chip_stretched_ms", "chip_routed_ms", "chips_per_s", 170, runFig10},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// samples is one series of measurements (latencies in ms, set-up
// times in s, resident sets in MB).
type samples []float64

func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}

// tail is the highest percentile, at most p90, with at least ten
// samples beyond it (the median when there are fewer than twenty).
func (s samples) tail() (q, v float64) {
	q = 0.9
	if lim := 1 - 10/float64(len(s)); lim < q {
		q = max(lim, 0.5)
	}
	return q, s.quantile(q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// run is the accounting of one workload run: the timed client ops,
// their failures and oracle verdicts, and (traced) the per-layer
// breakdown.
type run struct {
	cfg config
	w   workload
	rng *rand.Rand

	setup []time.Duration
	lat   map[string]samples
	units int           // completed ops of the rate series
	busy  time.Duration // measured time the rate series spans

	attempted, failed   int
	checked, mismatches int
	rss                 samples // resident set after each op, MB
	peakRSS             float64 // peak resident set

	layers layerAcc
}

func newRun(cfg config, w workload) *run {
	return &run{
		cfg:    cfg,
		w:      w,
		rng:    rand.New(rand.NewSource(cfg.seed)),
		lat:    map[string]samples{},
		layers: newLayerAcc(),
	}
}

const maxSetups = 50

// timeSetup runs fn repeatedly, recording each duration: at least
// cfg.setups times and until cfg.setupTime has passed, so cheap set-ups
// get enough repetitions for a steady median. Every repetition builds
// fresh state; only the last one's is kept.
func (r *run) timeSetup(fn func() error) error {
	var total time.Duration
	for i := 0; i < maxSetups && (i < r.cfg.setups || total < r.cfg.setupTime); i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		r.setup = append(r.setup, d)
		total += d
	}
	return nil
}

func (r *run) budget() time.Duration {
	return time.Duration(r.cfg.seconds * float64(time.Second))
}

// more reports whether a client's timed loop, started at start, runs
// iteration i: the run's fixed count of iterations, cut short only if
// four budgets of wall time have passed.
func (r *run) more(i int, start time.Time) bool {
	n := max(2, int(r.cfg.seconds*r.w.perSecond))
	return i < n && time.Since(start) < 4*r.budget()
}

// observe records one op's latency in series key, and the process's
// resident set after it.
func (r *run) observe(key string, d time.Duration) {
	r.lat[key] = append(r.lat[key], ms(d))
	if mb, err := procStatusMB("VmRSS:"); err == nil {
		r.rss = append(r.rss, mb)
	}
}

// fail counts a failed op and reports it on stderr.
func (r *run) fail(what string, err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "riotbench %s: %s: %v\n", r.w.name, what, err)
}

// verdict records one oracle comparison.
func (r *run) verdict(what string, ok bool) {
	r.checked++
	if !ok {
		r.mismatches++
		fmt.Fprintf(os.Stderr, "riotbench %s: verdict mismatch: %s\n", r.w.name, what)
	}
}

// traceFor returns a fresh trace for an op when the run is traced and
// the op is one of the traced half (even index), else nil. Alternating
// ops keeps both halves on the same design states, so the difference
// in their latency is the tracing overhead.
func (r *run) traceFor(op int) *obs.Trace {
	if r.cfg.traced && op%2 == 0 {
		return obs.NewTrace()
	}
	return nil
}

// split files a traced run's op latency under the traced or the
// untraced half, for trace.overhead_frac.
func (r *run) split(key string, tr *obs.Trace, d time.Duration) {
	if !r.cfg.traced || key != r.w.primary {
		return
	}
	if tr != nil {
		r.layers.traced = append(r.layers.traced, ms(d))
	} else {
		r.layers.untraced = append(r.layers.untraced, ms(d))
	}
}

// account files one finished op: in a traced run, its span tree and
// registry counters (after is called only for traced ops) and its
// latency under the traced or untraced half.
func (r *run) account(key string, tr *obs.Trace, d time.Duration, before *obs.Snapshot, after func() *obs.Snapshot) {
	if tr != nil {
		r.layers.addTrace(tr, d)
		r.layers.addStats(before, after(), tr)
	}
	r.split(key, tr, d)
}

// markPeak reads the process's peak resident memory; workloads call it
// when their timed loop ends, before any deferred oracle check.
func (r *run) markPeak() error {
	rss, err := procStatusMB("VmHWM:")
	r.peakRSS = rss
	return err
}

// metric is one reported measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// rate is the throughput of the rate series over its measured time.
func (r *run) rate() float64 {
	if r.busy <= 0 {
		return 0
	}
	return float64(r.units) / r.busy.Seconds()
}

// setupS is the median set-up time in seconds.
func (r *run) setupS() float64 {
	s := make(samples, len(r.setup))
	for i, d := range r.setup {
		s[i] = d.Seconds()
	}
	return s.quantile(0.5)
}

// endToEnd is the JSON result's end-to-end metric list. The latency
// figures are lower deciles: the machine this benchmark was sized on
// alternates between quiet and contended phases that slow every op by
// up to 1.5x for seconds to minutes at a time, so a run's median and
// tail mix the two in varying proportion, while its fastest tenth of
// ops reflects the program on a quiet machine. Medians, tails and
// rates are printed above the JSON line.
func (r *run) endToEnd() []metric {
	return []metric{
		{"setup_s", r.setupS(), "s"},
		{"verdict_ms.p10", r.lat[r.w.primary].quantile(0.1), "ms"},
		{"verdict2_ms.p10", r.lat[r.w.secondary].quantile(0.1), "ms"},
		{"rss_mb", r.rss.quantile(0.5), "MB"},
	}
}

// report prints every metric by its workload-specific name, one per
// line, then the JSON result object as the last line.
func (r *run) report(out io.Writer) error {
	bw := bufio.NewWriter(out)
	fmt.Fprintf(bw, "# %s seed=%d seconds=%g trace=%v\n", r.w.name, r.cfg.seed, r.cfg.seconds, r.cfg.traced)
	keys := make([]string, 0, len(r.lat))
	for k := range r.lat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := r.lat[k]
		q, v := s.tail()
		for _, p := range [][2]float64{{0.1, s.quantile(0.1)}, {0.5, s.quantile(0.5)}, {q, v}} {
			fmt.Fprintf(bw, "%s %s.p%.0f %.4f ms (n=%d)\n", r.w.name, k, 100*p[0], p[1], len(s))
		}
	}
	fmt.Fprintf(bw, "%s setup_s %.4f s (n=%d)\n", r.w.name, r.setupS(), len(r.setup))
	fmt.Fprintf(bw, "%s %s %.4f 1/s (n=%d)\n", r.w.name, r.w.rate, r.rate(), r.units)
	fmt.Fprintf(bw, "%s rss_mb %.1f MB (median after each op)\n", r.w.name, r.rss.quantile(0.5))
	fmt.Fprintf(bw, "%s peak_rss_mb %.1f MB\n", r.w.name, r.peakRSS)
	fmt.Fprintf(bw, "%s verdict_mismatches %d count (checked=%d)\n", r.w.name, r.mismatches, r.checked)
	fmt.Fprintf(bw, "%s ops_failed_frac %.4f frac (attempted=%d)\n", r.w.name, r.failedFrac(), r.attempted)

	metrics := r.endToEnd()
	if r.cfg.traced {
		all := r.layers.metrics()
		for _, m := range all {
			fmt.Fprintf(bw, "%s %s %.4f %s\n", r.w.name, m.Name, m.Value, m.Unit)
		}
		metrics = pick(all, resultLayers)
	}
	line, err := resultJSON(r.mismatches == 0 && r.checked > 0, r.attempted, r.failed, metrics)
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

func (r *run) failedFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// resultJSON renders the one-line, machine-readable result object.
func resultJSON(correct bool, attempted, failed int, metrics []metric) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, m := range metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(line)
}

// procStatusMB reads one memory field of /proc/self/status (VmRSS:,
// VmHWM:) in MB.
func procStatusMB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("%s %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}
