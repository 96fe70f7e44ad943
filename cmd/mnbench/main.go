// Command mnbench regenerates every table and figure of the Mnemosyne
// paper's evaluation (§6) on the emulated SCM stack.
//
// Usage:
//
//	mnbench [flags] <experiment>...
//
// Experiments: table4-ldap table4-tc table5 table6 fig4 fig5 fig6 fig7
// reincarnation ablation groupcommit readmostly sharded hybrid readcache
// resp mod all
//
// By default delays are spin-realized with the paper's parameters (150 ns
// extra write latency, 4 GB/s write bandwidth); -nospin disables delays
// for a quick functional pass, and -quick shrinks the workloads.
//
// -json writes a versioned results document (schema version, git commit,
// result rows, telemetry snapshot, per-phase latency summaries from
// -attribution, on by default). Snapshots checked in as BENCH_<n>.json at
// the repo root form the perf trajectory that cmd/perfgate compares in
// CI. -trace writes a Chrome trace_event JSON of the run's span ring.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/telemetry"
)

var (
	quick       = flag.Bool("quick", false, "shrink workloads for a fast pass")
	noSpin      = flag.Bool("nospin", false, "disable emulated write delays")
	ops         = flag.Int("ops", 0, "override ops per thread for microbenchmarks")
	csvDir      = flag.String("csv", "", "also write per-experiment CSV files into this directory")
	jsonPath    = flag.String("json", "", "write all rows plus a telemetry snapshot as JSON to this file")
	attribution = flag.Bool("attribution", true, "record per-phase latency histograms (adds phase summaries to -json)")
	tracePath   = flag.String("trace", "", "write a Chrome trace_event JSON of the run's span/event ring to this file")
)

// csvOut appends one row to <csvDir>/<name>.csv, creating it with the
// header on first use, so every table and figure can be re-plotted.
var csvFiles = map[string]*os.File{}

func csvOut(name, header string, cols ...interface{}) {
	jsonCollect(name, header, cols...)
	if *csvDir == "" {
		return
	}
	f, ok := csvFiles[name]
	if !ok {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "mnbench: csv: %v\n", err)
			return
		}
		var err error
		f, err = os.Create(fmt.Sprintf("%s/%s.csv", *csvDir, name))
		if err != nil {
			fmt.Fprintf(os.Stderr, "mnbench: csv: %v\n", err)
			return
		}
		fmt.Fprintln(f, header)
		csvFiles[name] = f
	}
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(f, ",")
		}
		fmt.Fprintf(f, "%v", c)
	}
	fmt.Fprintln(f)
}

// jsonRows accumulates every emitted result row for -json; the header's
// comma-separated column names become the row's JSON keys.
var jsonRows []map[string]interface{}

func jsonCollect(name, header string, cols ...interface{}) {
	if *jsonPath == "" {
		return
	}
	keys := strings.Split(header, ",")
	row := map[string]interface{}{"experiment": name}
	for i, c := range cols {
		if i < len(keys) {
			row[keys[i]] = c
		}
	}
	jsonRows = append(jsonRows, row)
}

// benchSchemaVersion versions the -json document layout; perfgate refuses
// to compare documents with mismatched schemas.
const benchSchemaVersion = 1

// gitCommit resolves the commit the binary was run against, for the
// versioned perf trajectory: `git rev-parse` first, the GIT_COMMIT
// environment variable as the CI fallback, "unknown" otherwise.
func gitCommit() string {
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		if s := strings.TrimSpace(string(out)); s != "" {
			return s
		}
	}
	if s := os.Getenv("GIT_COMMIT"); s != "" {
		return s
	}
	return "unknown"
}

// writeJSON dumps the collected rows plus a snapshot of the telemetry
// registry (counters, gauges and latency quantiles accumulated by the
// stack while the experiments ran) and the per-phase attribution
// summaries, so a results file carries the paper-level numbers, the
// low-level persistence activity behind them, and where the time went.
// The document is versioned and stamped with the git commit: snapshots
// checked in as BENCH_<n>.json form the repo's perf trajectory, and
// cmd/perfgate compares two of them.
func writeJSON() error {
	if *jsonPath == "" {
		return nil
	}
	out := struct {
		SchemaVersion int                               `json:"schema_version"`
		GitCommit     string                            `json:"git_commit"`
		GeneratedAt   string                            `json:"generated_at"`
		Quick         bool                              `json:"quick"`
		NoSpin        bool                              `json:"nospin"`
		Rows          []map[string]interface{}          `json:"rows"`
		Telemetry     map[string]float64                `json:"telemetry"`
		Phases        map[string]telemetry.PhaseSummary `json:"phases"`
	}{
		benchSchemaVersion, gitCommit(), time.Now().UTC().Format(time.RFC3339),
		*quick, *noSpin, jsonRows, telemetry.Default.Snapshot(),
		telemetry.PhaseSummaries(),
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
}

func baseOptions() bench.Options {
	o := bench.Options{Spin: !*noSpin}
	if *attribution {
		// Attribution runs want every commit in the histograms, not the
		// default 1-in-16 latency sample.
		o.LatencySampleRate = 1
	}
	return o
}

func scale(n int) int {
	if *ops > 0 {
		return *ops
	}
	if *quick {
		return n / 10
	}
	return n
}

var valueSizes = []int{8, 64, 256, 1024, 2048, 4096}

func main() {
	flag.Parse()
	if *attribution {
		telemetry.EnableAttribution()
	}
	if *tracePath != "" {
		telemetry.DefaultTracer.Enable()
	}
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}
	for _, exp := range args {
		if err := run(exp); err != nil {
			fmt.Fprintf(os.Stderr, "mnbench: %s: %v\n", exp, err)
			os.Exit(1)
		}
	}
	for _, f := range csvFiles {
		f.Close()
	}
	if err := writeJSON(); err != nil {
		fmt.Fprintf(os.Stderr, "mnbench: json: %v\n", err)
		os.Exit(1)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err == nil {
			err = telemetry.DefaultTracer.WriteChromeJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mnbench: trace: %v\n", err)
			os.Exit(1)
		}
	}
}

func run(exp string) error {
	switch exp {
	case "all":
		for _, e := range []string{
			"table4-ldap", "table4-tc", "table5", "table6",
			"fig4", "fig5", "fig6", "fig7", "reincarnation", "ablation",
			"groupcommit", "readmostly", "sharded", "hybrid", "readcache",
			"resp", "mod",
		} {
			if err := run(e); err != nil {
				return err
			}
		}
		return nil
	case "table4-ldap":
		return table4LDAP()
	case "table4-tc":
		return table4TC()
	case "table5":
		return table5()
	case "table6":
		return table6()
	case "fig4", "fig5":
		return figs45()
	case "fig6":
		return fig6()
	case "fig7":
		return fig7()
	case "reincarnation":
		return reincarnation()
	case "ablation":
		return ablation()
	case "groupcommit":
		return groupCommit()
	case "readmostly":
		return readMostly()
	case "sharded":
		return sharded()
	case "hybrid":
		return hybrid()
	case "readcache":
		return readCache()
	case "resp":
		return respServe()
	case "mod":
		return modBackend()
	default:
		return fmt.Errorf("unknown experiment (want table4-ldap table4-tc table5 table6 fig4 fig5 fig6 fig7 reincarnation ablation groupcommit readmostly sharded hybrid readcache resp mod all)")
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func table4LDAP() error {
	header("Table 4 (OpenLDAP): update throughput, SLAMD-like add workload")
	fmt.Printf("%-18s %-10s %12s\n", "Backend", "Workload", "Updates/s")
	for _, backend := range []string{"bdb", "ldbm", "mnemosyne"} {
		row, err := bench.RunLDAP(bench.LDAPOpts{
			Options: baseOptions(),
			Backend: backend,
			Threads: 16,
			Entries: scale(10000),
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-18s %-10s %12.0f\n", row.Backend, "SLAMD", row.UpdatesPS)
		csvOut("table4_ldap", "backend,threads,updates_per_sec",
			row.Backend, row.Threads, row.UpdatesPS)
	}
	return nil
}

func table4TC() error {
	header("Table 4 (Tokyo Cabinet): update throughput, insert/delete queries")
	fmt.Printf("%-26s %8s %12s\n", "Mode", "Value", "Updates/s")
	for _, mode := range []string{"msync", "mnemosyne"} {
		for _, size := range []int{64, 1024} {
			row, err := bench.RunTC(bench.TCOpts{
				Options:   baseOptions(),
				Mode:      mode,
				ValueSize: size,
				Ops:       scale(3000),
			})
			if err != nil {
				return err
			}
			fmt.Printf("%-26s %7dB %12.0f\n", row.Mode, row.ValueSize, row.UpdatesPS)
			csvOut("table4_tc", "mode,value_bytes,updates_per_sec",
				row.Mode, row.ValueSize, row.UpdatesPS)
		}
	}
	return nil
}

func table5() error {
	header("Table 5: RB-tree updates vs Boost-style serialization")
	fmt.Printf("%10s %14s %18s %14s\n", "Tree Size", "Insert Lat", "Serialize Lat", "Inserts/Ser")
	sizes := []int{1 << 10, 8 << 10, 64 << 10, 256 << 10}
	if *quick {
		sizes = []int{1 << 10, 8 << 10}
	}
	for _, n := range sizes {
		row, err := bench.RunTable5(bench.Table5Opts{
			Options:  baseOptions(),
			TreeSize: n,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%10d %12.1fus %16.0fus %14.0f\n",
			row.TreeSize,
			float64(row.InsertLatency.Nanoseconds())/1000,
			float64(row.SerializeLatency.Nanoseconds())/1000,
			row.InsertsPerSerialization)
		csvOut("table5", "tree_size,insert_ns,serialize_ns,inserts_per_serialization",
			row.TreeSize, row.InsertLatency.Nanoseconds(),
			row.SerializeLatency.Nanoseconds(), row.InsertsPerSerialization)
	}
	return nil
}

func table6() error {
	header("Table 6: base vs tornbit RAWL throughput")
	fmt.Printf("%8s %14s %14s %10s\n", "Record", "Base MB/s", "Tornbit MB/s", "Gain")
	for _, size := range valueSizes {
		row, err := bench.RunTable6(bench.Table6Opts{
			Options:     baseOptions(),
			RecordBytes: size,
			Appends:     scale(5000),
		})
		if err != nil {
			return err
		}
		fmt.Printf("%7dB %14.1f %14.1f %+9.0f%%\n",
			row.RecordBytes, row.BaseMBps, row.TornbitMBps, row.TornbitGainPc)
		csvOut("table6", "record_bytes,base_mbps,tornbit_mbps,gain_pct",
			row.RecordBytes, row.BaseMBps, row.TornbitMBps, row.TornbitGainPc)
	}
	return nil
}

func figs45() error {
	header("Figures 4 & 5: hashtable write latency and update throughput, MTM vs BDB")
	fmt.Printf("%-8s %8s %8s %14s %14s\n", "System", "Threads", "Value", "Write Lat", "Updates/s")
	for _, threads := range []int{1, 2, 4} {
		for _, size := range valueSizes {
			o := bench.HashOpts{
				Options:      baseOptions(),
				ValueSize:    size,
				Threads:      threads,
				OpsPerThread: scale(2000),
			}
			b, err := bench.RunHashtableBDB(o)
			if err != nil {
				return err
			}
			m, err := bench.RunHashtableMTM(o)
			if err != nil {
				return err
			}
			for _, r := range []bench.HashRow{b, m} {
				fmt.Printf("%-8s %8d %7dB %12.1fus %14.0f\n",
					r.System, r.Threads, r.ValueSize,
					float64(r.WriteLatency.Nanoseconds())/1000, r.UpdatesPerSec)
				csvOut("fig4_fig5", "system,threads,value_bytes,write_latency_ns,updates_per_sec",
					r.System, r.Threads, r.ValueSize,
					r.WriteLatency.Nanoseconds(), r.UpdatesPerSec)
			}
		}
	}
	return nil
}

func fig6() error {
	header("Figure 6: async vs sync truncation, write latency decrease")
	fmt.Printf("%6s %8s %12s %12s %10s\n", "Idle", "Value", "Sync Lat", "Async Lat", "Decrease")
	for _, idle := range []int{90, 50, 10} {
		for _, size := range valueSizes {
			row, err := bench.RunFigure6Cell(idle, size, baseOptions())
			if err != nil {
				return err
			}
			fmt.Printf("%5d%% %7dB %10.1fus %10.1fus %+9.0f%%\n",
				row.IdlePct, row.ValueSize,
				float64(row.SyncLat.Nanoseconds())/1000,
				float64(row.AsyncLat.Nanoseconds())/1000,
				row.DecreasePct)
			csvOut("fig6", "idle_pct,value_bytes,sync_ns,async_ns,decrease_pct",
				row.IdlePct, row.ValueSize, row.SyncLat.Nanoseconds(),
				row.AsyncLat.Nanoseconds(), row.DecreasePct)
		}
	}
	return nil
}

func fig7() error {
	header("Figure 7: sensitivity to SCM write latency (MTM vs BDB, 1 thread)")
	fmt.Printf("%10s %8s %12s %12s %12s\n", "Latency", "Value", "MTM Lat", "BDB Lat", "MTM better")
	for _, lat := range []time.Duration{150 * time.Nanosecond, 1000 * time.Nanosecond, 2000 * time.Nanosecond} {
		for _, size := range valueSizes {
			row, err := bench.RunFigure7Cell(lat, size, baseOptions())
			if err != nil {
				return err
			}
			fmt.Printf("%10v %7dB %10.1fus %10.1fus %+10.0f%%\n",
				row.Latency, row.ValueSize,
				float64(row.MTM.Nanoseconds())/1000,
				float64(row.BDB.Nanoseconds())/1000,
				row.BetterPct)
			csvOut("fig7", "scm_latency_ns,value_bytes,mtm_ns,bdb_ns,mtm_better_pct",
				row.Latency.Nanoseconds(), row.ValueSize,
				row.MTM.Nanoseconds(), row.BDB.Nanoseconds(), row.BetterPct)
		}
	}
	return nil
}

func reincarnation() error {
	header("§6.3.2: reincarnation costs")
	res, err := bench.RunReincarnation(bench.ReincarnationOpts{
		Options:    baseOptions(),
		LiveAllocs: scale(5000),
		PendingTx:  64,
	})
	if err != nil {
		return err
	}
	fmt.Printf("region reconstruction at boot: %12v (%d frames, %v per GB)\n",
		res.ManagerBoot, res.MappedFrames, res.BootPerGB)
	fmt.Printf("remap regions into process:    %12v (%d regions)\n", res.Remap, res.RegionsMapped)
	fmt.Printf("heap scavenge:                 %12v (%d live allocations)\n", res.HeapScavenge, res.LiveAllocs)
	fmt.Printf("transaction replay:            %12v total, %v per tx (%d txs)\n",
		res.ReplayTotal, res.ReplayPerTx, res.TxReplayed)
	return nil
}

func groupCommit() error {
	header("Group commit: fence coalescing across concurrent committers")
	fmt.Printf("%-12s %10s %14s %18s\n", "Mode", "Goroutines", "Updates/s", "Fences/commit")
	rows, err := bench.RunGroupCommit(bench.GroupCommitOpts{
		Options:    baseOptions(),
		Goroutines: 8,
		TxPerG:     scale(400),
	})
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-12s %10d %14.0f %18.2f\n",
			r.Mode, r.Goroutines, r.OpsPerSec, r.FencesPerCommit)
		csvOut("groupcommit", "mode,goroutines,updates_per_sec,fences_per_commit",
			r.Mode, r.Goroutines, r.OpsPerSec, r.FencesPerCommit)
	}
	return nil
}

func readMostly() error {
	header("Read-mostly: slot-free snapshot reads vs leased-Atomic baseline (95/5 GET/SET)")
	fmt.Printf("%-8s %10s %14s %14s %14s\n", "Mode", "Goroutines", "Ops/s", "Fences/op", "Leases/op")
	rows, err := bench.RunReadMostly(bench.ReadMostlyOpts{
		Options: baseOptions(),
		OpsPerG: scale(2000),
	})
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-8s %10d %14.0f %14.2f %14.2f\n",
			r.Mode, r.Goroutines, r.OpsPerSec, r.FencesPerOp, r.LeasesPerOp)
		csvOut("readmostly", "mode,goroutines,ops_per_sec,fences_per_op,leases_per_op",
			r.Mode, r.Goroutines, r.OpsPerSec, r.FencesPerOp, r.LeasesPerOp)
	}
	return nil
}

func sharded() error {
	header("Sharded: write throughput vs shard count, recovery time vs heap size")
	fmt.Printf("%-7s %10s %16s %12s %15s  %s\n", "Shards", "Goroutines", "Modeled ops/s", "Wall ops/s", "Fences/commit", "Commits/shard")
	rows, err := bench.RunSharded(bench.ShardedOpts{
		Options: baseOptions(),
		OpsPerG: scale(400),
	})
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-7d %10d %16.0f %12.0f %15.2f  %v\n",
			r.Shards, r.Goroutines, r.OpsPerSec, r.WallOpsPerSec, r.FencesPerCommit, r.ShardCommits)
		csvOut("sharded", "shards,goroutines,ops_per_sec,wall_ops_per_sec,fences_per_commit",
			r.Shards, r.Goroutines, r.OpsPerSec, r.WallOpsPerSec, r.FencesPerCommit)
		for k, commits := range r.ShardCommits {
			csvOut("sharded_pershard", "shards,shard,commits",
				r.Shards, k, commits)
		}
	}

	fmt.Printf("\n%-9s %7s %8s %14s %15s %16s\n", "Heap", "Shards", "Workers", "Reattach", "Per-shard sum", "Slowest shard")
	recRows, err := bench.RunShardedRecovery(bench.ShardedRecoveryOpts{
		Options: baseOptions(),
	})
	if err != nil {
		return err
	}
	for _, r := range recRows {
		fmt.Printf("%6d MB %7d %8d %14v %15v %16v\n",
			r.HeapMB, r.Shards, r.Workers, r.Recovery.Round(time.Microsecond),
			r.ShardSum.Round(time.Microsecond), r.ShardMax.Round(time.Microsecond))
		csvOut("sharded_recovery", "heap_mb,shards,workers,recovery_ns,shard_sum_ns,shard_max_ns",
			r.HeapMB, r.Shards, r.Workers, r.Recovery.Nanoseconds(), r.ShardSum.Nanoseconds(), r.ShardMax.Nanoseconds())
	}
	return nil
}

func hybrid() error {
	header("Commit modes: redo vs batched undo vs hybrid (fences per commit)")
	fmt.Printf("%-8s %10s %14s %18s %10s\n", "Mode", "Goroutines", "Updates/s", "Fences/commit", "Undo%")
	rows, err := bench.RunHybrid(bench.HybridOpts{
		Options: baseOptions(),
		TxPerG:  scale(400),
	})
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-8s %10d %14.0f %18.2f %9.0f%%\n",
			r.Mode, r.Goroutines, r.OpsPerSec, r.FencesPerCommit, r.UndoShare*100)
		csvOut("hybrid", "mode,goroutines,updates_per_sec,fences_per_commit,undo_share",
			r.Mode, r.Goroutines, r.OpsPerSec, r.FencesPerCommit, r.UndoShare)
	}
	return nil
}

func readCache() error {
	header("Read cache: snapshot reads with a volatile read-through cache (95/5 GET/SET)")
	fmt.Printf("%-6s %10s %14s %10s\n", "Cache", "Goroutines", "Ops/s", "Hit rate")
	rows, err := bench.RunReadCache(bench.ReadCacheOpts{
		Options: baseOptions(),
		OpsPerG: scale(2000),
	})
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-6s %10d %14.0f %9.1f%%\n",
			r.Cache, r.Goroutines, r.OpsPerSec, r.HitRate*100)
		csvOut("readcache", "cache,goroutines,ops_per_sec,hit_rate",
			r.Cache, r.Goroutines, r.OpsPerSec, r.HitRate)
	}
	return nil
}

func respServe() error {
	header("RESP serving surface: pipelined redis-protocol clients over TCP (50/50 GET/SET, binary values, hashes, TTLs)")
	fmt.Printf("%-8s %8s %14s %18s %12s\n", "Clients", "Window", "Ops/s", "Fences/commit", "Allocs/op")
	o := baseOptions()
	o.GroupCommit = true // concurrent sessions share commit epochs, as kvserved runs
	for _, window := range []int{1, 8, 32} {
		row, err := bench.RunRESP(bench.RESPOpts{
			Options:      o,
			Window:       window,
			OpsPerClient: scale(2000),
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %8d %14.0f %18.2f %12.1f\n",
			row.Clients, row.Window, row.OpsPerSec, row.FencesPerCommit, row.AllocsPerOp)
		csvOut("resp", "clients,window,ops_per_sec,fences_per_commit,allocs_per_op",
			row.Clients, row.Window, row.OpsPerSec, row.FencesPerCommit, row.AllocsPerOp)
	}
	return nil
}

func modBackend() error {
	header("MOD shadow updates: single-fence structures vs the mtm B+ tree (1 writer)")
	fmt.Printf("%-10s %14s %14s %16s\n", "Backend", "Ops/s", "Fences/op", "Shadow B/op")
	rows, err := bench.RunMod(bench.ModOpts{
		Options: baseOptions(),
		Ops:     scale(2000),
	})
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-10s %14.0f %14.3f %16.0f\n",
			r.Backend, r.OpsPerSec, r.FencesPerOp, r.ShadowBytesPerOp)
		csvOut("mod", "backend,ops_per_sec,fences_per_op,shadow_bytes_per_op",
			r.Backend, r.OpsPerSec, r.FencesPerOp, r.ShadowBytesPerOp)
	}
	return nil
}

func ablation() error {
	header("Ablations: transaction-system design choices (64 B and 1024 B values)")
	fmt.Printf("%-14s %8s %12s %14s\n", "Variant", "Value", "Write Lat", "Updates/s")
	for _, size := range []int{64, 1024} {
		for _, v := range bench.AblationVariants {
			row, err := bench.RunAblation(v, size, baseOptions())
			if err != nil {
				return err
			}
			fmt.Printf("%-14s %7dB %10.1fus %14.0f\n",
				row.Variant, row.ValueSize,
				float64(row.WriteLatency.Nanoseconds())/1000, row.UpdatesPerSec)
			csvOut("ablation", "variant,value_bytes,write_latency_ns,updates_per_sec",
				row.Variant, row.ValueSize,
				row.WriteLatency.Nanoseconds(), row.UpdatesPerSec)
		}
	}
	return nil
}
