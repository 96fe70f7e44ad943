// Benchmarks regenerating the paper's tables and figures as testing.B
// benchmarks. Each wraps an experiment kernel from internal/bench with the
// paper's emulation parameters (150 ns extra write latency, 4 GB/s write
// bandwidth, spin-realized). ns/op is the wall time of one whole kernel
// run; the paper-comparable numbers are the custom metrics.
//
// cmd/mnbench runs the same kernels over the full parameter sweeps and
// prints paper-style tables.
package mnemosyne_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
)

func spinOpts() bench.Options { return bench.Options{Spin: true} }

// BenchmarkTable4LDAP reproduces Table 4's OpenLDAP rows: update
// throughput of the three backends under the SLAMD-like add workload.
func BenchmarkTable4LDAP(b *testing.B) {
	for _, backend := range []string{"bdb", "ldbm", "mnemosyne"} {
		b.Run(backend, func(b *testing.B) {
			var last bench.LDAPRow
			for i := 0; i < b.N; i++ {
				row, err := bench.RunLDAP(bench.LDAPOpts{
					Options: spinOpts(), Backend: backend, Threads: 16, Entries: 2000,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = row
			}
			b.ReportMetric(last.UpdatesPS, "updates/s")
		})
	}
}

// BenchmarkTable4TokyoCabinet reproduces Table 4's Tokyo Cabinet rows:
// msync-per-update vs durable transactions at 64 B and 1024 B values.
func BenchmarkTable4TokyoCabinet(b *testing.B) {
	for _, mode := range []string{"msync", "mnemosyne"} {
		for _, size := range []int{64, 1024} {
			b.Run(fmt.Sprintf("%s/%dB", mode, size), func(b *testing.B) {
				var last bench.TCRow
				for i := 0; i < b.N; i++ {
					row, err := bench.RunTC(bench.TCOpts{
						Options: spinOpts(), Mode: mode, ValueSize: size, Ops: 1500,
					})
					if err != nil {
						b.Fatal(err)
					}
					last = row
				}
				b.ReportMetric(last.UpdatesPS, "updates/s")
			})
		}
	}
}

// BenchmarkTable5Serialization reproduces Table 5: red-black tree updates
// with durable transactions vs whole-tree Boost-style serialization.
// cmd/mnbench sweeps up to the paper's 256K nodes.
func BenchmarkTable5Serialization(b *testing.B) {
	for _, size := range []int{1 << 10, 8 << 10} {
		b.Run(fmt.Sprintf("%dnodes", size), func(b *testing.B) {
			var last bench.Table5Row
			for i := 0; i < b.N; i++ {
				row, err := bench.RunTable5(bench.Table5Opts{
					Options: spinOpts(), TreeSize: size, MeasuredInserts: 200,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = row
			}
			b.ReportMetric(float64(last.InsertLatency.Nanoseconds()), "ns/insert")
			b.ReportMetric(float64(last.SerializeLatency.Nanoseconds()), "ns/serialize")
			b.ReportMetric(last.InsertsPerSerialization, "inserts/serialization")
		})
	}
}

// BenchmarkTable6RAWL reproduces Table 6: base (commit-record, two
// fences) vs tornbit (one fence) log throughput across record sizes.
func BenchmarkTable6RAWL(b *testing.B) {
	for _, size := range []int{8, 64, 256, 1024, 2048, 4096} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			var last bench.Table6Row
			for i := 0; i < b.N; i++ {
				row, err := bench.RunTable6(bench.Table6Opts{
					Options: spinOpts(), RecordBytes: size, Appends: 3000,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = row
			}
			b.ReportMetric(last.BaseMBps, "base-MB/s")
			b.ReportMetric(last.TornbitMBps, "tornbit-MB/s")
		})
	}
}

// BenchmarkFig4WriteLatency reproduces Figure 4 (hashtable write latency,
// Mnemosyne transactions vs Berkeley DB) on a representative sub-grid.
func BenchmarkFig4WriteLatency(b *testing.B) {
	for _, sys := range []string{"MTM", "BDB"} {
		for _, threads := range []int{1, 4} {
			for _, size := range []int{64, 1024, 4096} {
				b.Run(fmt.Sprintf("%s/%dT/%dB", sys, threads, size), func(b *testing.B) {
					var last bench.HashRow
					for i := 0; i < b.N; i++ {
						o := bench.HashOpts{
							Options: spinOpts(), ValueSize: size,
							Threads: threads, OpsPerThread: 1000,
						}
						var row bench.HashRow
						var err error
						if sys == "MTM" {
							row, err = bench.RunHashtableMTM(o)
						} else {
							row, err = bench.RunHashtableBDB(o)
						}
						if err != nil {
							b.Fatal(err)
						}
						last = row
					}
					b.ReportMetric(float64(last.WriteLatency.Nanoseconds()), "ns/write")
				})
			}
		}
	}
}

// BenchmarkFig5Throughput reproduces Figure 5 (aggregate update
// throughput and its scaling with threads).
func BenchmarkFig5Throughput(b *testing.B) {
	for _, sys := range []string{"MTM", "BDB"} {
		for _, threads := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/%dT", sys, threads), func(b *testing.B) {
				var last bench.HashRow
				for i := 0; i < b.N; i++ {
					o := bench.HashOpts{
						Options: spinOpts(), ValueSize: 64,
						Threads: threads, OpsPerThread: 1000,
					}
					var row bench.HashRow
					var err error
					if sys == "MTM" {
						row, err = bench.RunHashtableMTM(o)
					} else {
						row, err = bench.RunHashtableBDB(o)
					}
					if err != nil {
						b.Fatal(err)
					}
					last = row
				}
				b.ReportMetric(last.UpdatesPerSec, "updates/s")
			})
		}
	}
}

// BenchmarkFig6AsyncTruncation reproduces Figure 6: the write-latency
// change from asynchronous log truncation at different duty cycles.
func BenchmarkFig6AsyncTruncation(b *testing.B) {
	for _, idle := range []int{90, 50, 10} {
		b.Run(fmt.Sprintf("%didle", idle), func(b *testing.B) {
			var last bench.Figure6Row
			for i := 0; i < b.N; i++ {
				row, err := bench.RunFigure6Cell(idle, 1024, spinOpts())
				if err != nil {
					b.Fatal(err)
				}
				last = row
			}
			b.ReportMetric(float64(last.SyncLat.Nanoseconds()), "ns/sync-write")
			b.ReportMetric(float64(last.AsyncLat.Nanoseconds()), "ns/async-write")
			b.ReportMetric(last.DecreasePct, "latency-decrease-%")
		})
	}
}

// BenchmarkFig7LatencySensitivity reproduces Figure 7: Mnemosyne's
// advantage over Berkeley DB as SCM write latency grows.
func BenchmarkFig7LatencySensitivity(b *testing.B) {
	for _, lat := range []time.Duration{150 * time.Nanosecond, 1000 * time.Nanosecond, 2000 * time.Nanosecond} {
		for _, size := range []int{64, 1024} {
			b.Run(fmt.Sprintf("%v/%dB", lat, size), func(b *testing.B) {
				var last bench.Figure7Row
				for i := 0; i < b.N; i++ {
					row, err := bench.RunFigure7Cell(lat, size, spinOpts())
					if err != nil {
						b.Fatal(err)
					}
					last = row
				}
				b.ReportMetric(last.BetterPct, "mtm-better-%")
			})
		}
	}
}

// BenchmarkReincarnation reproduces §6.3.2: region reconstruction at
// boot, region remap, heap scavenge and transaction replay.
func BenchmarkReincarnation(b *testing.B) {
	var last bench.ReincarnationResult
	for i := 0; i < b.N; i++ {
		res, err := bench.RunReincarnation(bench.ReincarnationOpts{
			Options: spinOpts(), LiveAllocs: 5000, PendingTx: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.BootPerGB.Milliseconds()), "boot-ms/GB")
	b.ReportMetric(float64(last.Remap.Microseconds()), "remap-us")
	b.ReportMetric(float64(last.HeapScavenge.Microseconds()), "scavenge-us")
	if last.TxReplayed > 0 {
		b.ReportMetric(float64(last.ReplayPerTx.Nanoseconds()), "ns/replayed-tx")
	}
}

// BenchmarkAblationUndoVsRedo and friends quantify the design choices the
// paper argues for in §5.
func BenchmarkAblationUndoVsRedo(b *testing.B) {
	for _, v := range []string{"redo", "undo"} {
		b.Run(v, func(b *testing.B) { runAblation(b, v) })
	}
}

// BenchmarkAblationWriteback compares store+flush write-back against
// streaming write-through write-back at commit.
func BenchmarkAblationWriteback(b *testing.B) {
	for _, v := range []string{"redo", "wt-writeback"} {
		b.Run(v, func(b *testing.B) { runAblation(b, v) })
	}
}

// BenchmarkAblationTruncation compares synchronous and asynchronous log
// truncation on the unthrottled workload.
func BenchmarkAblationTruncation(b *testing.B) {
	for _, v := range []string{"redo", "async"} {
		b.Run(v, func(b *testing.B) { runAblation(b, v) })
	}
}

func runAblation(b *testing.B, variant string) {
	var last bench.AblationRow
	for i := 0; i < b.N; i++ {
		row, err := bench.RunAblation(variant, 1024, spinOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = row
	}
	b.ReportMetric(float64(last.WriteLatency.Nanoseconds()), "ns/write")
	b.ReportMetric(last.UpdatesPerSec, "updates/s")
}

// BenchmarkReadMostly compares the slot-free snapshot-read path against
// the leased-Atomic baseline on a 95/5 GET/SET B+ tree mix, across the
// concurrency ladder, with Slots=32. The paper-comparable number is
// ops/s: past the slot bound the baseline serializes on thread leases
// while View readers keep scaling.
func BenchmarkReadMostly(b *testing.B) {
	for _, mode := range []string{"atomic", "view"} {
		for _, g := range []int{1, 8, 32, 128} {
			b.Run(fmt.Sprintf("%s/%dg", mode, g), func(b *testing.B) {
				var last bench.ReadMostlyRow
				for i := 0; i < b.N; i++ {
					row, err := bench.RunReadMostlyCell(bench.ReadMostlyOpts{
						Options: spinOpts(), Mode: mode, Goroutines: g, OpsPerG: 500,
					})
					if err != nil {
						b.Fatal(err)
					}
					last = row
				}
				b.ReportMetric(last.OpsPerSec, "ops/s")
				b.ReportMetric(last.FencesPerOp, "fences/op")
				b.ReportMetric(last.LeasesPerOp, "leases/op")
			})
		}
	}
}

// BenchmarkRESPServe measures the redis-protocol serving surface end to
// end: pipelined RESP clients over TCP driving the command engine with a
// 50/50 GET/SET mix (binary values, hashes, EX deadlines). The
// paper-comparable number is ops/s; fences/commit shows how the window
// amortizes durability.
func BenchmarkRESPServe(b *testing.B) {
	for _, window := range []int{1, 32} {
		b.Run(fmt.Sprintf("window%d", window), func(b *testing.B) {
			b.ReportAllocs()
			var last bench.RESPRow
			for i := 0; i < b.N; i++ {
				opts := spinOpts()
				opts.GroupCommit = true
				row, err := bench.RunRESP(bench.RESPOpts{
					Options: opts, Window: window, OpsPerClient: 500,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = row
			}
			b.ReportMetric(last.OpsPerSec, "ops/s")
			b.ReportMetric(last.FencesPerCommit, "fences/commit")
			b.ReportMetric(last.AllocsPerOp, "allocs/served-op")
		})
	}
}

// BenchmarkModCommit prices one committed mutation on the MOD
// shadow-update map against the transactional B+ tree under redo, both
// driven through the shared pds.OrderedMap interface. The
// paper-comparable numbers are fences/op (MOD's contract: exactly 1)
// and the shadow bytes each copy-on-write path costs.
func BenchmarkModCommit(b *testing.B) {
	for _, backend := range []string{"mod", "mtm-redo"} {
		b.Run(backend, func(b *testing.B) {
			var last bench.ModRow
			for i := 0; i < b.N; i++ {
				row, err := bench.RunModCell(bench.ModOpts{
					Options: spinOpts(), Ops: 1000,
				}, backend)
				if err != nil {
					b.Fatal(err)
				}
				last = row
			}
			b.ReportMetric(last.OpsPerSec, "ops/s")
			b.ReportMetric(last.FencesPerOp, "fences/op")
			b.ReportMetric(last.ShadowBytesPerOp, "shadowB/op")
		})
	}
}
