// Command benchmark is the repository's benchmark: it builds the real
// serving stack in-process, drives it closed loop over loopback RESP with a
// seeded command stream, checks every reply against a model, and reports a
// request's cost end to end (BENCHMARK.json's end_to_end metrics) or layer
// by layer (-trace 1, its per_layer metrics). See README.md.
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
//	bash benchmark/run.sh -spec
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/scm"
)

// measurement is one emitted metric value.
type measurement struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"` // observations behind the value, printed in the table
}

// result is one run: the last line of standard output, per the benchmark
// contract.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

// options are one invocation's settings.
type options struct {
	seed         int64
	accountedOps int           // ops in the accounted (exact-count) window
	warmup       time.Duration // discarded head of the timed pass
	measure      time.Duration // timed-pass length after the warm-up
	slice        time.Duration // timed-pass slice, see bestQuartile
	trace        bool
	workdir      string // scratch for region files and traces, inside the checkout
	traceOut     string // Chrome trace file (-trace 1); default <workdir>/trace-<workload>.json
	spin         bool   // timed pass on DelaySpin devices (off only in the package test)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: set_small_serial, set_large_serial, get_zipf_2conn or mixed_sharded_pipelined")
		seed    = flag.Int64("seed", 1, "seed of the command stream and the crash policies")
		seconds = flag.Int("seconds", runSeconds, "seconds of work in the accounted pass; length of the timed pass (-trace 1)")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace instead of the end-to-end metrics")
		workdir = flag.String("workdir", ".bench_build", "scratch directory for region files and traces")
		out     = flag.String("out", "", "Chrome trace-event file written by -trace 1 (default <workdir>/trace-<workload>.json)")
		results = flag.String("results", "", "append this run's result to a JSON-lines file, the input of -compare")
		compare = flag.Bool("compare", false, "compare two -results files: benchmark -compare a.jsonl b.jsonl")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json as the metric catalogue defines it")
	)
	flag.Parse()
	switch {
	case *spec:
		b, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: benchmark -compare a.jsonl b.jsonl"))
		}
		unresolved, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if unresolved {
			os.Exit(1)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	dir, err := os.MkdirTemp(mkdirAll(*workdir), "run-")
	if err != nil {
		fatal(err)
	}
	opts := options{
		seed: *seed, accountedOps: w.accountedRate * *seconds,
		trace: *trace != 0, workdir: dir, traceOut: *out,
		warmup: 2 * time.Second, measure: time.Duration(*seconds) * time.Second, slice: 250 * time.Millisecond,
		spin: true,
	}
	if opts.traceOut == "" {
		opts.traceOut = filepath.Join(*workdir, "trace-"+w.name+".json")
	}
	res, err := run(w, opts)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	printTable(w, opts, res)
	if *results != "" {
		if err := appendRecord(*results, newRecord(w, opts, res)); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func mkdirAll(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

// run executes one workload's passes and assembles the result: the
// end-to-end metrics from the set-ups and the accounted pass, or with
// opts.trace the per-layer metrics from the accounted, crash, timed and
// ladder passes. Both kinds of run crash the stack and read every key back.
func run(w *workload, opts options) (*result, error) {
	met := metrics{}
	var total tally
	var setups [][]time.Duration

	// Every stack stays referenced until the run ends: a freed device's
	// span would be recycled for the next one and cleared in full, and the
	// set-ups would no longer be identical work.
	var benches []*bench
	defer func() {
		for _, b := range benches {
			b.close()
		}
	}()
	setUpNext := func(mode scm.DelayMode) (*bench, error) {
		b, parts, err := setUp(w, mode, stackDir(opts.workdir, len(benches)), opts.seed)
		if err != nil {
			return nil, err
		}
		benches = append(benches, b)
		if mode == scm.DelayAccount { // setup_s is over identical set-ups
			setups = append(setups, parts)
		}
		return b, nil
	}

	b, err := setUpNext(scm.DelayAccount)
	if err != nil {
		return nil, err
	}
	acct, err := b.accounted(opts.accountedOps)
	if err != nil {
		return nil, fmt.Errorf("accounted pass: %w", err)
	}
	// Memory is read here, with one stack set up and the accounted window
	// served, before the crash cycles and the timing-only set-ups add their
	// own. The resident set does not repeat: its high-water mark includes
	// whatever garbage stood uncollected at its worst moment (450, 541,
	// 450 MB on three runs of the sharded workload), and even after a forced
	// collection and debug.FreeOSMemory it reads 258 MB on most runs and
	// 350 MB on about one in ten with identical MemStats: pages of live
	// objects that one run has touched and another has not (see README).
	// The live heap after a forced collection does repeat (422-423 MB on
	// every one of those runs): the emulated devices whole, touched or not,
	// plus every volatile structure the stack keeps. Two collections: pooled
	// buffers survive one as sync.Pool's victim cache.
	peakRSS, err := statusMB("VmHWM")
	if err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	liveBytes, freeSBs := b.stack.heapStats()
	userBytes := b.userBytes()
	crash, err := b.crashPass()
	if err != nil {
		return nil, fmt.Errorf("crash pass: %w", err)
	}

	if opts.trace {
		met.accountedLayers(w, &acct, liveBytes, freeSBs)
		met.crashLayers(&crash)
		mode := scm.DelaySpin
		if !opts.spin {
			mode = scm.DelayOff
		}
		spun, err := setUpNext(mode)
		if err != nil {
			return nil, err
		}
		timed, err := spun.timed(opts)
		if err != nil {
			return nil, fmt.Errorf("timed pass: %w", err)
		}
		met.set("host.peak_rss_mb", peakRSS, 1)
		met.set("host.ops_per_s", timed.opsPerSec, timed.slices)
		met.set("host.lat_p50_us", timed.p50us, timed.samples)
		met.set("host.lat_p99_us", timed.p99us, timed.samples)
		if err := ladder(w, opts, b, met); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	} else {
		ops := float64(acct.ops)
		met.set("device_ns_per_op", float64(acct.dev.AccountedNs)/ops, int(acct.ops))
		met.set("fences_per_op", float64(acct.dev.Fences)/ops, int(acct.ops))
		met.set("flushed_lines_per_op", float64(acct.dev.Flushes)/ops, int(acct.ops))
		met.set("wt_bytes_per_op", float64(acct.dev.BytesWT)/ops, int(acct.ops))
		met.set("go_allocs_per_op", float64(acct.mallocs)/ops, int(acct.ops))
		met.set("go_alloc_bytes_per_op", float64(acct.allocBytes)/ops, int(acct.ops))
		met.set("pm_bytes_per_user_byte", float64(liveBytes)/float64(userBytes), 1)

		// The remaining set-ups are only timed.
		for len(setups) < setUps {
			if _, err := setUpNext(scm.DelayAccount); err != nil {
				return nil, err
			}
		}
		met.set("setup_s", setupSeconds(setups), len(setups))
		for i, parts := range setups {
			fmt.Fprintf(os.Stderr, "benchmark: set-up %d took %.4f s\n", i, setupSeconds([][]time.Duration{parts}))
		}
		met.set("live_heap_mb", float64(live.HeapAlloc)/(1<<20), 1)
	}
	for _, b := range benches {
		total.add(b.tally())
	}

	res := &result{Attempted: total.attempted, Failed: total.failed, Metrics: met}
	if opts.trace {
		met.set("harness.durability_violations", float64(crash.violations), int(crash.keysRead))
		met.set("harness.failed_ops_share", float64(total.failed)/float64(total.attempted), int(total.attempted))
	}
	res.Correct = total.failed == 0 && crash.violations == 0
	if total.firstFailure != "" {
		fmt.Fprintln(os.Stderr, "benchmark: first failed op:", total.firstFailure)
	}
	want := endToEnd
	if opts.trace {
		want = perLayer
	}
	for _, m := range want {
		got, ok := met[m.name]
		if !ok || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", m.name, got.Value)
		}
	}
	return res, nil
}

// metrics collects emitted values by catalogue name.
type metrics map[string]measurement

func (m metrics) set(name string, v float64, samples int) {
	m[name] = measurement{Value: v, Unit: unitOf(name), Samples: samples}
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("metric " + name + " is not in the catalogue")
}

// printTable prints every metric by name with unit, sample count and bound.
func printTable(w *workload, opts options, res *result) {
	list := endToEnd
	if opts.trace {
		list = perLayer
	}
	fmt.Printf("workload %s seed %d trace %v: %d ops attempted, %d failed\n",
		w.name, opts.seed, opts.trace, res.Attempted, res.Failed)
	fmt.Printf("%-38s %16s %-10s %9s %6s\n", "metric", "value", "unit", "samples", "bound")
	for _, d := range list {
		m := res.Metrics[d.name]
		bound := "-"
		if d.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", d.bound*100)
		}
		fmt.Printf("%-38s %16.4f %-10s %9d %6s\n", d.name, m.Value, m.Unit, m.Samples, bound)
	}
}
