package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func quickOptions(t *testing.T, trace bool) options {
	dir := t.TempDir()
	return options{
		seed: 7, accountedOps: 400, trace: trace, workdir: dir, traceOut: filepath.Join(dir, "trace.json"),
		warmup: 50 * time.Millisecond, measure: 300 * time.Millisecond, slice: 100 * time.Millisecond,
		spin: false,
	}
}

// Every workload, a few hundred ops, delays off: each pass runs, every
// catalogued metric comes out finite, nothing fails, and the traced run
// leaves a loadable trace behind.
func TestWorkloadsQuick(t *testing.T) {
	for i := range workloads {
		w := workloads[i].quick()
		for _, trace := range []bool{false, true} {
			opts := quickOptions(t, trace)
			res, err := run(&w, opts)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, catalogue has %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present=%v)", w.name, trace, d.name, m, ok)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if !trace {
				continue
			}
			raw, err := os.ReadFile(opts.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Ph  string
					Cat string
				}
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("%s: trace is not JSON: %v", w.name, err)
			}
			rungs := map[string]int{}
			for _, e := range doc.TraceEvents {
				if e.Ph == "X" {
					rungs[e.Cat]++
				}
			}
			for r, name := range rungNames {
				if r == rungShard && w.shards == 1 {
					continue
				}
				if rungs[name] == 0 {
					t.Errorf("%s: trace has no %s spans", w.name, name)
				}
			}
		}
	}
}

// The modeled metrics of a serial workload are counts of what the program
// did, not measurements. Run as the driver runs it — one process per run —
// device_ns, fences, flushed lines, WT bytes and pm_bytes_per_user_byte came
// out bit-identical on both serial workloads in sixty runs over twenty seeds
// (README, first measured numbers; see setUp for what it took). Inside one
// process only the fence and flush counts repeat exactly: pheap hands out
// allocator lanes from a process-global counter, so a second stack's threads
// land on other lanes than the first's and a superblock activation (one WT
// word) can fall inside the window in one run and outside it in the other.
// Those two are therefore held to 1% here, not to equality.
func TestSerialCountsRepeat(t *testing.T) {
	w := findWorkload("set_small_serial").quick()
	var runs [2]*result
	for i := range runs {
		var err error
		if runs[i], err = run(&w, quickOptions(t, false)); err != nil {
			t.Fatal(err)
		}
	}
	value := func(i int, name string) float64 { return runs[i].Metrics[name].Value }
	for _, name := range []string{"fences_per_op", "flushed_lines_per_op"} {
		if a, b := value(0, name), value(1, name); a != b {
			t.Errorf("%s: %v then %v on the same seed", name, a, b)
		}
	}
	for _, name := range []string{"device_ns_per_op", "wt_bytes_per_op"} {
		if a, b := value(0, name), value(1, name); math.Abs(a-b) > 0.01*a {
			t.Errorf("%s: %v then %v on the same seed, over 1%% apart", name, a, b)
		}
	}
}

// BENCHMARK.json is generated from the catalogue (-spec) and must stay
// inside the benchmark contract's limits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with: bash benchmark/run.sh -spec > BENCHMARK.json")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		checkName(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why is %d chars or spans lines", w.name, len(w.why))
		}
		if w.quick().keys/w.conns < msetKeys {
			t.Errorf("workload %s: quick keyspace too small for MSET", w.name)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	setup := false
	for _, d := range endToEnd {
		checkName(d.name)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v", d.name, d.bound)
		}
		if d.name == "setup_s" {
			setup = d.unit == "s" && d.better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("%s: unit %q better %q", d.name, d.unit, d.better)
		}
	}
	for _, d := range perLayer {
		checkName(d.name)
	}
	// Four workloads, 4 + 22 per workload runs, 3420 s in all.
	if runs := 4 + 22*len(workloads); runSeconds < 1 || runSeconds > 60 || runs*runSeconds > 3420 {
		t.Errorf("run_seconds %d cannot fit %d runs", runSeconds, runs)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, values map[string][]float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 4; i++ {
			rec := record{Workload: "w", Correct: true, Metrics: map[string]recordedMetric{}}
			for metric, vs := range values {
				better := "lower"
				if metric == "ops_per_s" {
					better = "higher"
				}
				rec.Metrics[metric] = recordedMetric{Value: vs[i], Unit: "x", Better: better, Bound: 0.10}
			}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", map[string][]float64{
		"held": {100, 101, 99, 100}, "slower": {100, 101, 99, 100},
		"ops_per_s": {100, 101, 99, 100}, "noisy": {100, 140, 70, 100},
	})
	b := write("b.jsonl", map[string][]float64{
		"held": {104, 105, 103, 104}, "slower": {120, 121, 119, 120},
		"ops_per_s": {120, 121, 119, 120}, "noisy": {100, 101, 99, 100},
	})
	var out bytes.Buffer
	flagged, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !flagged {
		t.Error("a worse and an unresolved metric were not flagged")
	}
	for metric, verdict := range map[string]string{"held": "unchanged", "slower": "WORSE", "ops_per_s": "better", "noisy": "UNRESOLVED"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[1] == metric {
				found = strings.Contains(line, " "+verdict+" ")
			}
		}
		if !found {
			t.Errorf("%s: want verdict %s in\n%s", metric, verdict, out.String())
		}
	}
}
