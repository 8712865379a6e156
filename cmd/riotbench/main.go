// Command riotbench is Riot's end-to-end benchmark: one command that
// runs the paths users actually get — riot.Session (the library and the
// CLI's shell), serve.Server (riot -serve) and the figure-10 assembly —
// with the hierarchical verification engine on, as shipped. It checks
// verdicts against the scratch flat oracle and prints every metric by
// name, with its unit.
//
// riotbench is a module of its own (go.mod here requires riot from the
// repository root), so it builds and tests apart from the program. From
// this directory:
//
//	go run . [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	go test ./...   # smoke test: every workload, tiny designs, < 10 s
//
// From the repository root, with every build artefact under
// .bench_build:
//
//	bash cmd/riotbench/run.sh --workload edit_loop --seed 1 --seconds 15 --trace 0
//
// Without -workload every workload runs, each in its own child process
// (the command re-executes itself), so set-up, warm caches and peak
// memory never leak from one workload into the next. Load comes from
// that one process: one client goroutine in a closed loop (a client's
// next op starts only when its previous op has returned), except
// serve_mix, which runs two. GOMAXPROCS stays at its default. The seed
// (default 1982) generates every edit trace; the program only sees the
// generated commands. Edit kinds and verdict kinds are dealt from
// shuffled blocks, so the mix is exact on every seed.
//
// # Workloads
//
//   - edit_loop: one designer, a 32x32 grid of 1024 individually placed
//     SRCELLs under one editor. The seeded trace is do/undo pairs: ±1λ
//     nudge of a random cell (60%), a metal-only PIPEM move beside the
//     grid (15%), ORIENT R180 and back (15%), DELETE and re-CREATE in
//     place (10%). Each edit is followed by an extract+DRC verdict
//     (Session.VerifyCell, 80%) or an LVS verdict (Session.CheckLVS,
//     20%). Why: the paper's interactive loop on the general hier
//     compose path, with the design stationary around the clean grid.
//     It exercises core snapshots, hier compose and materialize, and LVS
//     (flatten, reference, match); the store and the array fast path
//     are barely touched.
//   - signoff_32, signoff_128: CLI-style batch sign-off as cmd/riot runs
//     it: a fresh Session, AttachCache(dir), READ srcell.sticks; EDIT
//     CHIP; CREATE SRCELL a ARRAY N N, then CheckLVS and CheckDRC. Each
//     iteration is a cold run on an empty cache directory, then a warm
//     run in a fresh Session over the directory the cold run filled.
//     Why: the castore disk tier (written cold, read warm), certificate
//     build vs load, and the uniform-array fast path. The two sizes
//     separate fixed per-process cost from O(copies) cost: warm LVS
//     still flattens every copy.
//   - serve_mix: one serve.Server shared by two clients on design
//     "team", working on different cells. The designer runs the
//     edit_loop generator on a 16x16 grid through Server.Do, with DRC
//     after each edit (LVS every 5th op). The sign-off client loops
//     sessions OPEN; EDIT CHIP_k; CREATE SRCELL a ARRAY 64 64; LVS; DRC;
//     ENDEDIT; DELCELL CHIP_k; CLOSE until the designer finishes. Why:
//     the team setting — short edits contend with long verifies, and the
//     shared castore.Mem serves every session.
//   - assemble_fig10: alternately filter.BuildChip(Stretched) and
//     filter.BuildChip(Routed), each then verified (LVS + DRC) through a
//     fresh Session and exported with core.ExportCIF and
//     cif.File.WriteTo(io.Discard). Why: the paper's own chip — ABUT,
//     river ROUTE, STRETCH through the compactor, pads. It is irregular
//     (no fast path, partial certification, real residual LVS matching)
//     and uses no store: the bypass workload for array- and
//     store-specific optimisations.
//
// # Run size
//
// -seconds (default 15) sets a run's work, not a timer: the loop runs
// -seconds times a fixed per-workload rate of iterations (edits,
// sign-off pairs, designer ops, chips; see workloads), about the rate a
// 2-vCPU machine sustains, so a run measures about -seconds there and
// every commit and seed does the same ops. Set-up repeats at least three
// times and for at least a second before the loop; oracle checks are
// outside every timed region.
//
// # End-to-end metrics
//
// Measured with tracing off. Each workload prints its latency series
// under their own names, as p10, p50 and p90 with the sample count
// (below twenty samples the tail shown is the highest percentile with
// ten samples beyond it):
//
//	edit_loop       edit_drc_ms (edit issued to extract+DRC verdict), edit_lvs_ms (to LVS verdict), edits_per_s
//	signoff_N       signoff_warm_ms, signoff_cold_ms, signoffs_per_s
//	serve_mix       edit_drc_ms, edit_lvs_ms (designer), session_ms (one sign-off session), sessions_per_s
//	assemble_fig10  chip_stretched_ms, chip_routed_ms (build+LVS+DRC+CIF), chips_per_s
//
// plus, on every workload, setup_s (median set-up: grid or design build
// with a priming verify and LVS), rss_mb (median of the workload
// process's resident set, VmRSS, read after every op), peak_rss_mb
// (VmHWM when the timed loop ends), verdict_mismatches (must be 0) and
// ops_failed_frac (failed or refused ops over attempted ops).
//
// The last line is one machine-readable JSON object: correct
// (no verdict mismatch), attempted, failed, and BENCHMARK.json's
// end_to_end metrics: setup_s, rss_mb, and verdict_ms.p10 and
// verdict2_ms.p10, the lower deciles of each workload's first and
// second series above. Lower deciles, not medians: the 2-vCPU
// machine this was sized on alternates between quiet and contended
// phases that slow every op by up to 1.5x for seconds to minutes at a
// time (a fixed spin loop reads 172 ms or 232 ms), so a run's median and
// tail mix the phases in varying proportion while its fastest tenth
// tracks the program. rss_mb, not the peak, for the same reason: the
// peak is wherever the collector happened to lag once, and on
// signoff_32's 30 MB heap it moves by a 4 MB heap growth step between
// runs.
//
// # Per-layer metrics
//
// With -trace 1, every other op runs with an obs.Trace attached: the
// pipeline's own spans plus harness spans around core edits, snapshots,
// assembly, CIF export, store opening and server round trips. Times are
// span self times in ms per traced op, and the same as shares of traced
// op wall time (.share); counters come from the session's stats
// registry, per traced op. What each should move:
//
//	core.edit_ms, core.snapshot_ms         edit_drc_ms on edit_loop and serve_mix
//	core.assemble_ms, cif.export_ms        chips_per_s
//	verify.verify_ms (inclusive), verify.materialize_ms, verify.hier_frac
//	                                       edit_drc_ms on edit_loop
//	verify.flat_splice_ms, verify.flat_splice_ratio
//	                                       none: edit_loop's generations replayed through a
//	                                       Verifier with Hier unset, the splice path, per op and
//	                                       as a ratio to verify.verify_ms
//	hier.compose_ms, hier.width_ms, hier.spacing_ms, hier.fast_ms
//	                                       edit_drc_ms on edit_loop, signoff_warm_ms
//	hier.cert_build_ms, extract.ms, drc.ms signoff_cold_ms, chips_per_s
//	hier.cert_disk_ms                      signoff_warm_ms (self time of the certs span:
//	                                       certificate lookup, signing, store loads and stores)
//	hier.cert_built, hier.template_built, hier.fallbacks, hier.quarantined
//	                                       explain moves in edit_drc_ms
//	flatten.ms, flatten.reflattened, flatten.disk_loaded
//	                                       edit_lvs_ms, signoff_warm_ms on signoff_128
//	lvs.check_ms (LVS only, its verify call excluded), lvs.reference_ms,
//	lvs.match_ms, lvs.matched, lvs.certified_frac, lvs.fallback_frac
//	                                       edit_lvs_ms, signoff_warm_ms
//	castore.open_ms, castore.hit_rate, castore.puts, castore.corrupt
//	                                       signoff_warm_ms
//	serve.do_ms.{edit,drc,lvs,create} (median per call), serve.self_ms,
//	store.hit_rate, store.bytes_mb         sessions_per_s, edit_drc_ms, rss_mb on serve_mix
//	trace.coverage                         mapped span time over traced op wall time; the
//	                                       traced run fails below 0.90
//	trace.overhead_frac                    traced vs untraced median of the first series
//
// The JSON line of a traced run carries BENCHMARK.json's per_layer
// subset: ms for the stages every workload reaches, .share for layers
// only some reach (so no time reads a constant 0), and the counters and
// fractions.
//
// # Correctness
//
// Outside every timed region, the flat oracle (oracle.go) checks every
// tenth generation of the edit loops, and every sign-off, session and
// figure-10 verdict: circuits and violations reflect.DeepEqual to
// extract.FromCell / drc.CheckCell, LVS equal to lvs.CheckEditorFlat.
// Workloads that rebuild one design repeatedly compare each verdict with
// the first and run the oracle on the first after the timed loop.
//
// # Bounds
//
// BENCHMARK.json's regression bounds come from two sets of ten seeded
// runs per workload on the 2-vCPU machine (inter-quartile range over
// median, per workload). rss_mb spread at most 4.2% and gets 15%, three
// times that. The p10 latencies spread 1.7-11% (signoff_128 and
// serve_mix's sessions, whose p10 drifted with the machine over the
// minutes a set takes, are the widest) and get the 25% cap, as does
// setup_s (spread 9-25%; the median of many set-ups, but each run's
// set-ups fall in one machine phase). Medians of the two sets differed
// by at most 10%.
//
// BENCH_extract.json at the repository root is left as it is; retiring
// its hand-kept sections in favour of this command is a later change.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

func main() {
	cfg := defaultConfig()
	name := flag.String("workload", "", "workload to run (default: all, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of every generated edit trace")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "run size: seconds of ops at each workload's nominal rate")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.traced = *trace == 1

	if *name == "" {
		if err := runAll(); err != nil {
			fmt.Fprintln(os.Stderr, "riotbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "riotbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	r, err := runWorkload(cfg, w)
	if err == nil {
		err = r.report(os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "riotbench %s: %v\n", w.name, err)
		os.Exit(1)
	}
}

// runWorkload runs one workload in this process: its set-ups, the timed
// loop, the peak-memory reading and the deferred oracle checks.
func runWorkload(cfg config, w workload) (*run, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	r := newRun(cfg, w)
	if err := w.run(r); err != nil {
		return nil, err
	}
	if r.cfg.traced && r.layers.coverage() < 0.90 {
		return nil, fmt.Errorf("trace coverage %.3f < 0.90: a stage ran outside every mapped span", r.layers.coverage())
	}
	return r, nil
}

// runAll re-executes this binary once per workload with the same flags,
// each child writing its report to this process's output.
func runAll() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"-workload", w.name}, os.Args[1:]...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, "; "))
	}
	return nil
}
