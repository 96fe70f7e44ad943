// Command perfgate compares two mnbench -json documents — a committed
// BENCH_<n>.json baseline and a freshly generated candidate — and fails
// (exit 1) when the candidate regresses the perf trajectory:
//
//   - any phase's p50 latency grows more than 20% over the baseline
//     (with an absolute slack of 5µs, so nanosecond-scale phases don't
//     gate on noise; phases under 100 observations in either run are
//     skipped, as are blocking-dominated phases — the wait phases
//     lease_wait, gc_enqueue and gc_lead, and any phase with a p50 over
//     -max-p50-ms, default 100ms, in either run — whose duration is a
//     host-scheduling lottery, not commit-path work)
//   - fences per committed transaction (the sum of the commit path's
//     per-phase fence counters over mtm_commits_total) grows more than
//     20% plus an absolute slack of 0.05
//   - the sharded experiment's aggregate fences/commit (worst cell of
//     the `sharded` rows) grows past the same thresholds
//   - the hybrid experiment's undo-mode fences/commit at one goroutine
//     grows past the same thresholds, and — as an in-document invariant —
//     the candidate's undo mode must stay strictly below its redo mode
//     (the head-to-head the batched undo protocol exists to win)
//   - the read-cache experiment's worst cache-on hit rate drops more than
//     0.10 absolute (an invalidation or sizing regression)
//   - the mod experiment's shadow-update cell must report exactly 1.00
//     fences per mutation (within 0.01) — MOD's whole contract is the
//     single-fence commit, so any drift is a protocol bug, not noise —
//     and must stay strictly below the mtm-redo cell in the same document
//   - any matched sharded recovery cell (same heap size, shard count and
//     worker mode in both documents) slows more than -rec-pct (default
//     50%) plus -rec-slack-ms (default 25ms) — recovery is wall-clock
//     and host-sensitive, so its gate is looser than the phase gates
//
// The sharded, hybrid and read-cache trajectory gates only engage when
// BOTH documents carry the rows, so baselines generated before those
// experiments existed still compare cleanly (the undo-vs-redo and MOD
// single-fence invariants need only the candidate).
//
// Usage:
//
//	perfgate -baseline BENCH_1.json -current bench.json [-pct 20]
//
// Both documents must carry the same schema_version; perfgate refuses to
// compare across schema changes. CI runs it against the latest checked-in
// BENCH_<n>.json, so a PR that slows a commit phase or adds fences to the
// commit path fails visibly instead of silently bending the trajectory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// waitPhases time how long a thread sat parked, not commit-path work: for
// a free log slot, or on a group-commit epoch (the enqueue span is a
// member's wait for the done broadcast, the lead span holds the leader's
// gathering window). Their p50 flips between a few µs and the 50µs window
// with whether committers happen to overlap — BENCH_5's two runs of one
// binary read 9µs and 55µs — so they are reported and never gated; the
// epoch's work is gc_flush, which is.
var waitPhases = map[string]bool{"lease_wait": true, "gc_enqueue": true, "gc_lead": true}

// sortedKeys returns the map's keys in stable order, so the gate report
// is deterministic run to run.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var (
	baselinePath = flag.String("baseline", "", "baseline mnbench -json document (e.g. BENCH_1.json)")
	currentPath  = flag.String("current", "", "candidate mnbench -json document to gate")
	pct          = flag.Float64("pct", 20, "relative regression threshold, percent")
	slackNs      = flag.Float64("slack-ns", 5000, "absolute p50 slack in nanoseconds; growth below this never gates")
	minCount     = flag.Int("min-count", 100, "skip phases with fewer observations than this in either run")
	recPct       = flag.Float64("rec-pct", 50, "relative regression threshold for sharded recovery cells, percent")
	recSlackMs   = flag.Float64("rec-slack-ms", 25, "absolute sharded-recovery slack in milliseconds; growth below this never gates")
	maxP50Ms     = flag.Float64("max-p50-ms", 100, "skip phases whose p50 exceeds this in either run — they measure blocking (backpressure waits), not commit-path work")
)

type phaseSummary struct {
	Count  uint64  `json:"count"`
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
	MeanNs float64 `json:"mean_ns"`
	Fences uint64  `json:"fences"`
}

type benchDoc struct {
	SchemaVersion int                      `json:"schema_version"`
	GitCommit     string                   `json:"git_commit"`
	Telemetry     map[string]float64       `json:"telemetry"`
	Phases        map[string]phaseSummary  `json:"phases"`
	Rows          []map[string]interface{} `json:"rows"`
}

// rows filters the document's result rows by experiment name.
func (d *benchDoc) rows(experiment string) []map[string]interface{} {
	var out []map[string]interface{}
	for _, r := range d.Rows {
		if r["experiment"] == experiment {
			out = append(out, r)
		}
	}
	return out
}

// num reads a numeric row column (JSON numbers decode as float64).
func num(row map[string]interface{}, key string) (float64, bool) {
	v, ok := row[key].(float64)
	return v, ok
}

func load(path string) (*benchDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDoc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.SchemaVersion == 0 {
		return nil, fmt.Errorf("%s: not a versioned mnbench document (no schema_version)", path)
	}
	return &d, nil
}

// fencesPerCommit aggregates the per-phase fence counters into one
// trajectory number. Phase counters (not the scm device gauges, which are
// only registered by the core stack) make this deterministic across bench
// environments: every counted fence is one CountPhaseFence call on the
// commit or truncation path.
func fencesPerCommit(d *benchDoc) (float64, bool) {
	commits := d.Telemetry["mtm_commits_total"]
	if commits <= 0 {
		return 0, false
	}
	var fences uint64
	for _, p := range d.Phases {
		fences += p.Fences
	}
	return float64(fences) / commits, true
}

// shardedFences aggregates the sharded experiment's fences/commit into
// one trajectory number: the worst cell across the shard-count ladder.
// Sharding's promise is that fences/commit stays flat as shards are
// added, so the worst cell is the number a regression would bend.
func shardedFences(d *benchDoc) (float64, bool) {
	worst, ok := 0.0, false
	for _, r := range d.rows("sharded") {
		if f, has := num(r, "fences_per_commit"); has {
			ok = true
			if f > worst {
				worst = f
			}
		}
	}
	return worst, ok
}

// hybridModeFences extracts the hybrid experiment's fences/commit for
// one commit mode at the 1-goroutine cell — the single-writer ordering
// cost each protocol pays, free of group or concurrency effects.
func hybridModeFences(d *benchDoc, mode string) (float64, bool) {
	for _, r := range d.rows("hybrid") {
		if r["mode"] != mode {
			continue
		}
		if g, ok := num(r, "goroutines"); !ok || g != 1 {
			continue
		}
		if f, ok := num(r, "fences_per_commit"); ok {
			return f, true
		}
	}
	return 0, false
}

// modFences extracts the mod experiment's fences-per-mutation for one
// backend cell ("mod", "mtm-redo", "mtm-undo").
func modFences(d *benchDoc, backend string) (float64, bool) {
	for _, r := range d.rows("mod") {
		if r["backend"] != backend {
			continue
		}
		if f, ok := num(r, "fences_per_op"); ok {
			return f, true
		}
	}
	return 0, false
}

// readCacheHitRate returns the worst cache-on cell's hit rate — the
// number an invalidation or sizing regression would sink.
func readCacheHitRate(d *benchDoc) (float64, bool) {
	worst, ok := 1.0, false
	for _, r := range d.rows("readcache") {
		if r["cache"] != "on" {
			continue
		}
		if h, has := num(r, "hit_rate"); has {
			ok = true
			if h < worst {
				worst = h
			}
		}
	}
	return worst, ok
}

// shardedRecovery indexes the sharded recovery sweep by configuration
// cell, so only like-for-like cells (same heap, shards, workers) gate.
func shardedRecovery(d *benchDoc) map[string]float64 {
	cells := map[string]float64{}
	for _, r := range d.rows("sharded_recovery") {
		heap, ok1 := num(r, "heap_mb")
		shards, ok2 := num(r, "shards")
		workers, ok3 := num(r, "workers")
		ns, ok4 := num(r, "recovery_ns")
		if ok1 && ok2 && ok3 && ok4 {
			cells[fmt.Sprintf("%gMB/%gsh/%gw", heap, shards, workers)] = ns
		}
	}
	return cells
}

func main() {
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "perfgate: pass -baseline and -current")
		os.Exit(2)
	}
	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
		os.Exit(2)
	}
	if base.SchemaVersion != cur.SchemaVersion {
		fmt.Fprintf(os.Stderr, "perfgate: schema mismatch: baseline v%d vs current v%d\n",
			base.SchemaVersion, cur.SchemaVersion)
		os.Exit(2)
	}
	fmt.Printf("perfgate: baseline %s (%s) vs current %s (%s)\n",
		*baselinePath, base.GitCommit, *currentPath, cur.GitCommit)

	failed := false
	for name, b := range base.Phases {
		c, ok := cur.Phases[name]
		if !ok || b.Count < uint64(*minCount) || c.Count < uint64(*minCount) {
			continue
		}
		if b.P50Ns <= 0 {
			continue
		}
		if waitPhases[name] || b.P50Ns > *maxP50Ms*1e6 || c.P50Ns > *maxP50Ms*1e6 {
			fmt.Printf("skip phase %-14s p50 %8.3fms -> %8.3fms (blocking-dominated; not gated)\n",
				name, b.P50Ns/1e6, c.P50Ns/1e6)
			continue
		}
		growth := (c.P50Ns - b.P50Ns) / b.P50Ns * 100
		if growth > *pct && c.P50Ns-b.P50Ns > *slackNs {
			fmt.Printf("FAIL phase %-14s p50 %8.0fns -> %8.0fns (%+.0f%%, limit %+.0f%%)\n",
				name, b.P50Ns, c.P50Ns, growth, *pct)
			failed = true
		} else {
			fmt.Printf("ok   phase %-14s p50 %8.0fns -> %8.0fns (%+.0f%%)\n",
				name, b.P50Ns, c.P50Ns, growth)
		}
	}

	bf, bok := fencesPerCommit(base)
	cf, cok := fencesPerCommit(cur)
	if bok && cok && bf > 0 {
		growth := (cf - bf) / bf * 100
		if growth > *pct && cf-bf > 0.05 {
			fmt.Printf("FAIL fences/commit %.3f -> %.3f (%+.0f%%, limit %+.0f%%)\n", bf, cf, growth, *pct)
			failed = true
		} else {
			fmt.Printf("ok   fences/commit %.3f -> %.3f (%+.0f%%)\n", bf, cf, growth)
		}
	}

	bsf, bok := shardedFences(base)
	csf, cok := shardedFences(cur)
	if bok && cok && bsf > 0 {
		growth := (csf - bsf) / bsf * 100
		if growth > *pct && csf-bsf > 0.05 {
			fmt.Printf("FAIL sharded fences/commit %.3f -> %.3f (%+.0f%%, limit %+.0f%%)\n", bsf, csf, growth, *pct)
			failed = true
		} else {
			fmt.Printf("ok   sharded fences/commit %.3f -> %.3f (%+.0f%%)\n", bsf, csf, growth)
		}
	}

	bhf, bok := hybridModeFences(base, "undo")
	chf, cok := hybridModeFences(cur, "undo")
	if bok && cok && bhf > 0 {
		growth := (chf - bhf) / bhf * 100
		if growth > *pct && chf-bhf > 0.05 {
			fmt.Printf("FAIL undo fences/commit %.3f -> %.3f (%+.0f%%, limit %+.0f%%)\n", bhf, chf, growth, *pct)
			failed = true
		} else {
			fmt.Printf("ok   undo fences/commit %.3f -> %.3f (%+.0f%%)\n", bhf, chf, growth)
		}
	}
	// In-document invariant rather than a trajectory: the undo path must
	// keep beating sync redo at one goroutine in the candidate itself —
	// the head-to-head the undo protocol exists to win.
	if cu, uok := hybridModeFences(cur, "undo"); uok {
		if cr, rok := hybridModeFences(cur, "redo"); rok {
			if cu >= cr {
				fmt.Printf("FAIL hybrid head-to-head: undo %.3f fences/commit not below redo %.3f\n", cu, cr)
				failed = true
			} else {
				fmt.Printf("ok   hybrid head-to-head: undo %.3f fences/commit below redo %.3f\n", cu, cr)
			}
		}
	}

	// Candidate-only invariants for the MOD backend: the shadow-update
	// protocol's contract is exactly one fence per committed mutation —
	// not a trajectory to track but an identity to hold — and it must
	// beat the transactional redo path it exists to undercut.
	if mf, ok := modFences(cur, "mod"); ok {
		if mf < 0.99 || mf > 1.01 {
			fmt.Printf("FAIL mod single-fence contract: %.3f fences/op (want 1.00 ± 0.01)\n", mf)
			failed = true
		} else {
			fmt.Printf("ok   mod single-fence contract: %.3f fences/op\n", mf)
		}
		if rf, rok := modFences(cur, "mtm-redo"); rok {
			if mf >= rf {
				fmt.Printf("FAIL mod head-to-head: %.3f fences/op not below mtm-redo %.3f\n", mf, rf)
				failed = true
			} else {
				fmt.Printf("ok   mod head-to-head: %.3f fences/op below mtm-redo %.3f\n", mf, rf)
			}
		}
	}

	bhr, bok := readCacheHitRate(base)
	chr, cok := readCacheHitRate(cur)
	if bok && cok {
		if drop := bhr - chr; drop > 0.10 {
			fmt.Printf("FAIL readcache hit rate %.2f -> %.2f (dropped %.2f, limit 0.10)\n", bhr, chr, drop)
			failed = true
		} else {
			fmt.Printf("ok   readcache hit rate %.2f -> %.2f\n", bhr, chr)
		}
	}

	brec, crec := shardedRecovery(base), shardedRecovery(cur)
	for _, cell := range sortedKeys(brec) {
		bns := brec[cell]
		cns, ok := crec[cell]
		if !ok || bns <= 0 {
			continue
		}
		growth := (cns - bns) / bns * 100
		if growth > *recPct && cns-bns > *recSlackMs*1e6 {
			fmt.Printf("FAIL sharded recovery %-14s %8.1fms -> %8.1fms (%+.0f%%, limit %+.0f%%)\n",
				cell, bns/1e6, cns/1e6, growth, *recPct)
			failed = true
		} else {
			fmt.Printf("ok   sharded recovery %-14s %8.1fms -> %8.1fms (%+.0f%%)\n",
				cell, bns/1e6, cns/1e6, growth)
		}
	}

	if failed {
		fmt.Println("perfgate: REGRESSION — commit-phase latency or fence trajectory got worse")
		os.Exit(1)
	}
	fmt.Println("perfgate: green")
}
