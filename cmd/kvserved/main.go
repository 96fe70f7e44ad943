// Command kvserved serves a durable key-value store over RESP2 (the redis
// wire protocol), with every acknowledged update persisted through a
// Mnemosyne durable memory transaction before the reply leaves the server.
//
// Usage:
//
//	kvserved [-addr :6379] [-image scm.img] [-dir ./pmem]
//	         [-size 256MiB] [-shards 4] [-recovery-workers 2]
//	         [-group-commit] [-group-commit-wait 50µs] [-metrics-addr :9090]
//	         [-commit-mode hybrid] [-hybrid-undo-max 16]
//	         [-read-cache 65536] [-read-latency 100ns]
//	         [-trace] [-attribution] [-slow-threshold 50ms]
//	         [-latency-sample-rate 16]
//
// With -shards N (N > 1) the store is N fully independent Mnemosyne
// instances behind the same wire protocol: shard k's device lives at
// <image>.shard<k> with region files under <dir>/shard-<k>, single-key
// commands route by key hash, MGET/MSET/MDEL scatter-gather, and a
// cross-shard MSET commits atomically through per-shard intent records.
// Boot recovers shards concurrently, bounded by -recovery-workers
// (default: one worker per shard). -shards 1 (the default) keeps the
// classic single-instance layout, so existing images stay drop-in.
//
// Try it with `redis-cli -p 6379`, or with inline commands over
// `nc localhost 6379`: SET/GET/DEL/MSET/MGET/MDEL, hashes
// (HSET/HGET/HDEL/HLEN/HGETALL), crash-safe TTLs (SET ... EX,
// EXPIRE/PEXPIRE/TTL/PTTL/PERSIST), COUNT, STATS, PING and QUIT. Bulk
// strings are binary-safe, so values may contain spaces and arbitrary
// bytes. Pipelined clients (several commands in flight) are answered in
// order; with -group-commit their transactions share durability fences.
//
// With -metrics-addr the server also exposes Prometheus metrics on
// GET /metrics, expvar on /debug/vars, pprof under /debug/pprof/ and —
// with -trace — a Chrome trace_event dump of recent persistence events
// on GET /trace (load it in chrome://tracing or Perfetto).
//
// Phase attribution (-attribution, on by default) records per-phase
// latency histograms for every stage of a request — exec, lease wait,
// transaction body, validate, log append, fence, write-back, truncate —
// and arms the slow-commit flight recorder: any request slower than
// -slow-threshold is captured as a full span tree, served on
// /debug/mnemosyne/slow (and `pmctl slow`). -slow-threshold 0 disarms
// the recorder.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"time"

	"repro/internal/core"
	"repro/internal/kvserve"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

var (
	addr        = flag.String("addr", ":6379", "RESP2 (redis protocol) listen address; try `redis-cli -p <port>`")
	image       = flag.String("image", "scm.img", "SCM device image file")
	dir         = flag.String("dir", ".", "region backing directory")
	size        = flag.Int64("size", 256<<20, "device size in bytes")
	emulate     = flag.Bool("emulate-latency", false, "spin-emulate PCM write latency")
	shards      = flag.Int("shards", 1, "independent PM shards behind the front end (1 = classic single-instance layout)")
	recWorkers  = flag.Int("recovery-workers", 0, "max shards recovering concurrently at boot (0 = one worker per shard)")
	threads     = flag.Int("threads", 0, "transaction-thread slots per shard (0 = default 32); caps write transactions in flight, not connections")
	leaseWait   = flag.Duration("lease-timeout", 0, "how long a write waits for a transaction-thread slot when all are running transactions (0 = default 5s)")
	metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics, expvar and pprof on this address (empty disables)")
	traceOn     = flag.Bool("trace", false, "record persistence events to the in-memory trace ring (served on /trace)")
	groupCommit = flag.Bool("group-commit", false, "coalesce durability fences across concurrent commits")
	gcWait      = flag.Duration("group-commit-wait", 0, "epoch leader's gathering window while writers are active (0 = default 50µs, negative disables)")
	gcBatch     = flag.Int("group-commit-batch", 0, "max transactions per commit epoch (0 = default 64)")
	attribution = flag.Bool("attribution", true, "record per-phase latency histograms and fence counters")
	slowThresh  = flag.Duration("slow-threshold", 50*time.Millisecond, "capture span trees of requests slower than this in the flight recorder (0 disables)")
	slowKeep    = flag.Int("slow-keep", 8, "slowest captures retained by the flight recorder")
	latSample   = flag.Int("latency-sample-rate", 0, "sample commit/abort latency 1-in-N (0 = default 16; 1 with -attribution)")
	commitMode  = flag.String("commit-mode", "", `durable-commit protocol: "redo" (default), "undo" (in-place stores behind a persisted undo record, one fewer fence per commit), or "hybrid" (undo up to -hybrid-undo-max writes, redo above)`)
	hybridMax   = flag.Int("hybrid-undo-max", 0, "hybrid mode's write-set threshold for the undo path (0 = default 16)")
	readCache   = flag.Int("read-cache", 0, "words of volatile read-through cache over hot persistent words, per memory view (0 disables)")
	readLatency = flag.Duration("read-latency", 0, "emulated extra PCM read latency per word load (0 = reads free, the paper's model)")
)

func main() {
	flag.Parse()
	if *traceOn {
		telemetry.DefaultTracer.Enable()
	}
	sample := *latSample
	if *attribution {
		telemetry.EnableAttribution()
		if sample == 0 {
			sample = 1 // attribution wants every commit in the histograms
		}
	}
	if *slowThresh > 0 {
		telemetry.DefaultRecorder.Configure(*slowThresh, *slowKeep, 10*time.Minute)
	}
	cfg := core.Config{
		DevicePath:     *image,
		Dir:            *dir,
		DeviceSize:     *size,
		EmulateLatency: *emulate,
		Threads:        *threads,
		LeaseTimeout:   *leaseWait,

		GroupCommit:       *groupCommit,
		GroupCommitWait:   *gcWait,
		GroupCommitBatch:  *gcBatch,
		LatencySampleRate: sample,
		CommitMode:        *commitMode,
		HybridUndoMax:     *hybridMax,
		ReadCacheWords:    *readCache,
		ReadLatency:       *readLatency,
	}
	var (
		srv     *kvserve.Server
		closeFn func() error
	)
	if *shards > 1 {
		st, err := shard.Open(shard.Config{
			Config:          cfg,
			Shards:          *shards,
			RecoveryWorkers: *recWorkers,
		})
		if err != nil {
			log.Fatalf("kvserved: open sharded store: %v", err)
		}
		if srv, err = kvserve.NewSharded(st); err != nil {
			log.Fatalf("kvserved: %v", err)
		}
		closeFn = st.Close
	} else {
		pm, err := core.Open(cfg)
		if err != nil {
			log.Fatalf("kvserved: open persistent memory: %v", err)
		}
		if srv, err = kvserve.New(pm); err != nil {
			log.Fatalf("kvserved: %v", err)
		}
		closeFn = pm.Close
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("kvserved: listen: %v", err)
	}
	if *shards > 1 {
		fmt.Printf("kvserved: serving durable KV (RESP2) on %s (%d shards, image %s.shard<k>)\n", l.Addr(), *shards, *image)
	} else {
		fmt.Printf("kvserved: serving durable KV (RESP2) on %s (image %s)\n", l.Addr(), *image)
	}
	if *metricsAddr != "" {
		_, bound, err := telemetry.Serve(*metricsAddr, telemetry.Default, telemetry.DefaultTracer)
		if err != nil {
			log.Fatalf("kvserved: metrics listener: %v", err)
		}
		fmt.Printf("kvserved: telemetry on http://%s/metrics\n", bound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	// The handler only stops the listener; ServeRESP then returns nil and the
	// main goroutine runs the one pm.Close. Closing (and exiting) here as
	// well raced that close and could kill the process mid image-save,
	// losing acknowledged data across a graceful restart.
	go func() {
		<-sig
		fmt.Println("kvserved: shutting down")
		srv.Close()
	}()

	if err := srv.ServeRESP(l); err != nil {
		log.Fatalf("kvserved: %v", err)
	}
	if err := closeFn(); err != nil {
		log.Fatalf("kvserved: close: %v", err)
	}
}
