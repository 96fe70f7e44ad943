package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/scm"
	"repro/internal/telemetry"
)

const (
	preloadWindow      = 128                    // kvserve's maxBatch: the deepest pipeline one round is served in
	preloadChunks      = 16                     // parts a preload is timed in
	serialPreloadDepth = 7                      // deepest pipeline kvserve does not partition (see setUp)
	cpuSampleLen       = 100 * time.Millisecond // accounted-pass CPU slice
)

// session is one client connection with the generator and the model of
// the keys it owns.
type session struct {
	c   *client
	enc *encoder
	m   *model
	g   *generator
	ops []op // one window
	t   tally
}

// bench is one serving stack with its connected sessions.
type bench struct {
	w     *workload
	seed  int64
	stack *stack
	sess  []*session
}

// each runs fn on every session concurrently and returns the first error.
func (b *bench) each(fn func(i int, s *session) error) error {
	errs := make([]error, len(b.sess))
	var wg sync.WaitGroup
	for i, s := range b.sess {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			errs[i] = fn(i, s)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// tally sums the sessions' attempted and failed ops so far.
func (b *bench) tally() tally {
	var t tally
	for _, s := range b.sess {
		t.add(s.t)
	}
	return t
}

func (b *bench) ops() int64 {
	var n int64
	for _, s := range b.sess {
		n += s.c.ops.Load()
	}
	return n
}

// connect (re)dials every session to the stack's current address.
func (b *bench) connect() error {
	for _, s := range b.sess {
		if s.c != nil {
			s.c.close()
		}
		c, err := dial(b.stack.addr, s.enc)
		if err != nil {
			return err
		}
		if s.c != nil { // byte and op counters run across reconnects
			c.ops.Store(s.c.ops.Load())
			c.bytesIn, c.bytesOut = s.c.bytesIn, s.c.bytesOut
		}
		s.c = c
	}
	return nil
}

func (b *bench) close() error {
	for _, s := range b.sess {
		s.c.close()
	}
	return b.stack.close()
}

// setUp is the setup pass: open and format a stack on devices of the given
// delay mode, connect, and preload every key at version 1 through RESP —
// with full pipelines, except on the serial workloads (see below). It
// returns the bench and how long each part of that took: opening, then the
// preload in preloadChunks chunks (see setupSeconds).
func setUp(w *workload, mode scm.DelayMode, dir string, seed int64) (*bench, []time.Duration, error) {
	var parts []time.Duration
	mark := time.Now()
	lap := func() {
		now := time.Now()
		parts = append(parts, now.Sub(mark))
		mark = now
	}
	st, err := openStack(w, mode, dir)
	if err != nil {
		return nil, nil, err
	}
	b := &bench{w: w, seed: seed, stack: st}
	for i := 0; i < w.clientConns(); i++ {
		s := &session{enc: newEncoder(w, i), m: newModel(w, i), ops: make([]op, preloadWindow)}
		b.sess = append(b.sess, s)
	}
	if err := b.connect(); err != nil {
		return nil, nil, err
	}
	lap()
	// A full pipeline is served by four partition goroutines, and which of
	// them allocates first decides where records land in the heap: with a
	// pipelined preload the same seed gave set_large_serial 10.00025,
	// 10.00017 and 10.00025 fences per op in three runs, and no two runs
	// the same pm_bytes_per_user_byte. The serial workloads promise exact
	// counts, so they preload at a depth kvserve serves on the session's own
	// goroutine, in order (it fans a batch out only from eight commands up),
	// and heap placement is a function of the seed alone.
	preloadDepth := preloadWindow
	if w.conns == 1 && w.window == 1 {
		preloadDepth = serialPreloadDepth
	}
	for chunk := 0; chunk < preloadChunks; chunk++ {
		err = b.each(func(_ int, s *session) error {
			end := s.m.slots() * (chunk + 1) / preloadChunks
			for i := s.m.slots() * chunk / preloadChunks; i < end; {
				n := 0
				for ; n < preloadDepth && i < end; n, i = n+1, i+1 {
					s.m.preloadOp(i, &s.ops[n])
				}
				if err := s.c.round(s.ops[:n], &s.t, nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("preload: %w", err)
		}
		lap()
	}
	for _, s := range b.sess {
		s.g = newGenerator(w, s.m, seed)
	}
	return b, parts, nil
}

// setupSeconds is setup_s. A run sets up setUps identical stacks, times
// each set-up in parts of identical work, and adds up each part's fastest
// time. On this host the hypervisor takes the CPU away for milliseconds at
// a time, many times a second when its neighbours are busy: a whole set-up
// never escapes that, but a part a few tens of milliseconds long does in one
// try of four, so the sum is the time set-up needs, and it moves with the
// work set-up does, not with the host's load.
func setupSeconds(setups [][]time.Duration) float64 {
	var sum time.Duration
	for part := range setups[0] {
		fastest := setups[0][part]
		for _, parts := range setups[1:] {
			fastest = min(fastest, parts[part])
		}
		sum += fastest
	}
	return sum.Seconds()
}

// window fills the session's next window from its stream.
func (s *session) window(n int) []op {
	for i := 0; i < n; i++ {
		s.g.next(&s.ops[i])
	}
	return s.ops[:n]
}

// runOps drives perSession stream ops on every session, in windows.
func (b *bench) runOps(perSession int) error {
	return b.each(func(_ int, s *session) error {
		for done := 0; done < perSession; done += b.w.window {
			if err := s.c.round(s.window(b.w.window), &s.t, nil); err != nil {
				return err
			}
		}
		return nil
	})
}

// --- timed pass ---

// timedResult is the wall-clock view: per-slice throughput and latency
// percentiles, reduced with bestQuartile.
type timedResult struct {
	opsPerSec, p50us, p99us float64
	slices                  int
	samples                 int // latency samples behind the percentiles
}

// latencyLog is one session's per-command latencies in completion order,
// with the index at which each slice begins.
type latencyLog struct {
	ns    []uint32
	marks []int
}

// driveUntil drives the stream closed loop on every session until the
// deadline, handing each reply's latency to record (nil = discard).
func (b *bench) driveUntil(deadline time.Time, record func(i int, sent time.Time, d time.Duration)) error {
	return b.each(func(i int, s *session) error {
		var sent time.Time
		var onReply func(time.Duration)
		if record != nil {
			onReply = func(d time.Duration) { record(i, sent, d) }
		}
		for {
			if sent = time.Now(); !sent.Before(deadline) {
				return nil
			}
			if err := s.c.round(s.window(b.w.window), &s.t, onReply); err != nil {
				return err
			}
		}
	})
}

// timed is the timed pass: on DelaySpin devices, drive the stream closed
// loop through a discarded warm-up, collect the preload's garbage, then
// measure and cut the measured time into slices. Tracing is off.
func (b *bench) timed(opts options) (timedResult, error) {
	measure, sliceLen := opts.measure, opts.slice
	if err := b.driveUntil(time.Now().Add(opts.warmup), nil); err != nil {
		return timedResult{}, err
	}
	runtime.GC()
	logs := make([]latencyLog, len(b.sess))
	t0 := time.Now()
	err := b.driveUntil(t0.Add(measure), func(i int, sent time.Time, d time.Duration) {
		l := &logs[i]
		for slice := int(sent.Add(d).Sub(t0) / sliceLen); len(l.marks) <= slice; {
			l.marks = append(l.marks, len(l.ns))
		}
		l.ns = append(l.ns, uint32(d))
	})
	if err != nil {
		return timedResult{}, err
	}
	res := timedResult{slices: int(measure / sliceLen)}
	var tput, p50, p99 []float64
	var merged []float64
	for slice := 0; slice < res.slices; slice++ {
		merged = merged[:0]
		for i := range logs {
			l := &logs[i]
			if slice >= len(l.marks) {
				continue
			}
			end := len(l.ns)
			if slice+1 < len(l.marks) {
				end = l.marks[slice+1]
			}
			for _, v := range l.ns[l.marks[slice]:end] {
				merged = append(merged, float64(v))
			}
		}
		if len(merged) == 0 {
			return timedResult{}, fmt.Errorf("timed pass: no op completed in slice %d", slice)
		}
		sort.Float64s(merged)
		res.samples += len(merged)
		tput = append(tput, float64(len(merged))/sliceLen.Seconds())
		p50 = append(p50, quantile(merged, 0.50)/1e3)
		p99 = append(p99, quantile(merged, 0.99)/1e3)
	}
	res.opsPerSec = bestQuartile(tput, true)
	res.p50us = bestQuartile(p50, false)
	res.p99us = bestQuartile(p99, false)
	return res, nil
}

// --- accounted pass ---

// accountedResult is what a fixed window of ops cost on DelayAccount
// devices: exact device counts, telemetry counter deltas, Go heap
// traffic and process CPU.
type accountedResult struct {
	ops          int64
	dev          scm.StatsSnapshot  // delta
	tel          map[string]float64 // counter deltas
	mallocs      uint64
	allocBytes   uint64
	cpuUsPerOp   float64 // bestQuartile over cpuSampleLen slices
	cpuSamples   int
	bytesIn      int64 // client → server
	bytesOut     int64
	shardCommits []uint64 // per-shard commit deltas
}

func (b *bench) shardCommits() []uint64 {
	pms := b.stack.pms()
	out := make([]uint64, len(pms))
	for k, pm := range pms {
		out[k] = pm.TM().Snapshot().Commits
	}
	return out
}

func (b *bench) wireBytes() (in, out int64) {
	for _, s := range b.sess {
		in += s.c.bytesOut
		out += s.c.bytesIn
	}
	return in, out
}

// accounted is the accounted pass: n ops from the seeded stream with every
// counter read before and after. Emulated delays are accounted, not spun,
// so CPU time here is the software's own.
func (b *bench) accounted(n int) (accountedResult, error) {
	perSession := n / len(b.sess) / b.w.window * b.w.window
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	dev0, tel0, ops0 := b.stack.deviceStats(), telemetry.Default.Snapshot(), b.ops()
	commits0 := b.shardCommits()
	in0, out0 := b.wireBytes()

	// Sample process CPU against answered ops on a wall-clock tick; the
	// sampler only reads two counters, so it does not perturb the window.
	type cpuSample struct {
		cpu time.Duration
		ops int64
	}
	samples := []cpuSample{{processCPU(), ops0}}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(cpuSampleLen)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				samples = append(samples, cpuSample{processCPU(), b.ops()})
			}
		}
	}()
	err := b.runOps(perSession)
	close(stop)
	<-sampled
	if err != nil {
		return accountedResult{}, err
	}
	samples = append(samples, cpuSample{processCPU(), b.ops()})

	runtime.ReadMemStats(&ms1)
	dev1, tel1 := b.stack.deviceStats(), telemetry.Default.Snapshot()
	res := accountedResult{
		ops: b.ops() - ops0,
		dev: scm.StatsSnapshot{
			Stores: dev1.Stores - dev0.Stores, WTStores: dev1.WTStores - dev0.WTStores,
			Flushes: dev1.Flushes - dev0.Flushes, Fences: dev1.Fences - dev0.Fences,
			BytesWT: dev1.BytesWT - dev0.BytesWT, AccountedNs: dev1.AccountedNs - dev0.AccountedNs,
		},
		tel:        make(map[string]float64, len(tel1)),
		mallocs:    ms1.Mallocs - ms0.Mallocs,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
	}
	for name, v := range tel1 {
		res.tel[name] = v - tel0[name]
	}
	in1, out1 := b.wireBytes()
	res.bytesIn, res.bytesOut = in1-in0, out1-out0
	for k, c := range b.shardCommits() {
		res.shardCommits = append(res.shardCommits, c-commits0[k])
	}
	var perSlice []float64
	for i := 1; i < len(samples); i++ {
		// A tail sample right after a tick holds too few ops to be a
		// rate; fold it into its neighbour by skipping it.
		if dOps := samples[i].ops - samples[i-1].ops; dOps >= 100 {
			perSlice = append(perSlice, float64(samples[i].cpu-samples[i-1].cpu)/1e3/float64(dOps))
		}
	}
	if len(perSlice) == 0 {
		last := samples[len(samples)-1]
		perSlice = []float64{float64(last.cpu-samples[0].cpu) / 1e3 / float64(res.ops)}
	}
	res.cpuUsPerOp = bestQuartile(perSlice, false)
	res.cpuSamples = len(perSlice)
	return res, nil
}

// --- crash pass ---

// crashResult is the crash pass: attach time per crash→attach cycle and
// what each layer reported about its own recovery.
type crashResult struct {
	attachMs, scavengeMs, mtmRecoveryMs, bootMs, remapMs, shardMaxMs []float64 // one per cycle
	replayed, recoveredIntents                                       int
	violations                                                       int64 // keys whose recovered value is not the last acked one
	keysRead                                                         int64
}

// crashPass crashes and reattaches the quiesced stack cycle after cycle,
// each time driving more acknowledged writes, then reads every key back
// through RESP against the model.
func (b *bench) crashPass() (crashResult, error) {
	var res crashResult
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	perSession := b.w.crashOps / len(b.sess) / b.w.window * b.w.window
	for cycle := 0; cycle < b.w.crashCycles; cycle++ {
		took, err := b.stack.crashAndRecover(b.seed<<8 + int64(cycle))
		if err != nil {
			return res, fmt.Errorf("crash cycle %d: %w", cycle, err)
		}
		res.attachMs = append(res.attachMs, ms(took))
		var scavenge, recovery, boot, remap, shardMax time.Duration
		for _, pm := range b.stack.pms() {
			// Shards recover concurrently: the slowest sets the time.
			scavenge = max(scavenge, pm.Heap().ScavengeTime())
			recovery = max(recovery, pm.TM().Recovery().Duration)
			boot = max(boot, pm.Runtime().Stats().ManagerBoot)
			remap = max(remap, pm.Runtime().Stats().Remap)
			res.replayed += pm.TM().Recovery().Replayed
		}
		if st := b.stack.st; st != nil {
			for k := 0; k < st.NShards(); k++ {
				shardMax = max(shardMax, st.Shard(k).RecoveryTime)
			}
			commits, aborts := st.RecoveredIntents()
			res.recoveredIntents += commits + aborts
		}
		res.scavengeMs = append(res.scavengeMs, ms(scavenge))
		res.mtmRecoveryMs = append(res.mtmRecoveryMs, ms(recovery))
		res.bootMs = append(res.bootMs, ms(boot))
		res.remapMs = append(res.remapMs, ms(remap))
		res.shardMaxMs = append(res.shardMaxMs, ms(shardMax))
		if err := b.connect(); err != nil {
			return res, err
		}
		if err := b.runOps(perSession); err != nil {
			return res, fmt.Errorf("after crash cycle %d: %w", cycle, err)
		}
	}
	failedBefore := b.tally().failed
	err := b.each(func(_ int, s *session) error {
		var ops []op
		for i := 0; i < s.m.slots(); {
			ops = ops[:0]
			for ; len(ops) < preloadWindow && i < s.m.slots(); i++ {
				ops = s.m.readbackOps(i, ops)
			}
			if err := s.c.round(ops, &s.t, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return res, fmt.Errorf("read-back: %w", err)
	}
	res.violations = b.tally().failed - failedBefore
	for _, s := range b.sess {
		res.keysRead += int64(s.m.slots())
	}
	return res, nil
}

// userBytes sums the models' live key+value bytes.
func (b *bench) userBytes() int64 {
	var n int64
	for _, s := range b.sess {
		n += s.m.userBytes(b.w.valueSize)
	}
	return n
}

func stackDir(workdir string, n int) string {
	return filepath.Join(workdir, fmt.Sprintf("stack-%d", n))
}
