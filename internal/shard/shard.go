// Package shard fronts N fully independent persistent-memory instances
// with one key-value interface. Each shard owns a complete Mnemosyne
// stack — its own SCM device, region runtime, persistent heap,
// transaction system, log-slot pool and group-commit epoch stream — so
// shards share no commit clock, no durability fence and no coordinator:
// the per-instance serialization points that remain after group commit
// (PR 4) and slot-free snapshot reads (PR 5) are multiplied away instead
// of optimized further.
//
// Single-key operations route by key hash. Multi-key operations
// scatter-gather across the shards they touch, in ascending shard order.
// A cross-shard MSET is made atomic with a per-shard intent record
// protocol (see xstage.go): a prepare record becomes durable on every
// participant before any shard applies, so recovery can always decide
// the whole transaction one way on every shard.
//
// Open recovers all shards concurrently with a bounded worker pool, then
// runs one sequential resolution pass over the surviving cross-shard
// intents. A Shards=1 store lays its state out exactly like a direct
// core.Open — same device path, same region directory, same
// "kvserve.root" static — so pre-sharding images open unchanged.
package shard

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mtm"
	"repro/internal/pds"
	"repro/internal/pmem"
	"repro/internal/scm"
	"repro/internal/telemetry"
)

// MaxShards bounds the shard count; participant sets of cross-shard
// transactions are tracked as 64-bit masks.
const MaxShards = 64

// Config assembles a sharded store. The embedded core.Config applies to
// every shard individually: DeviceSize and HeapSize are per shard, so a
// 4-shard store over 64 MB devices holds 256 MB total.
type Config struct {
	core.Config

	// Shards is the number of independent PM instances (0 ⇒ 1, max 64).
	// The count is fixed at first creation: images are laid out per
	// shard, and reopening with a different count would strand keys on
	// shards the hash no longer routes to.
	Shards int

	// RecoveryWorkers bounds how many shards recover concurrently at
	// Open/Attach (0 ⇒ min(Shards, number of CPUs); 1 recovers strictly
	// sequentially on the calling goroutine, which deterministic crash
	// workloads require).
	RecoveryWorkers int
}

func (c *Config) fill() error {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 0 || c.Shards > MaxShards {
		return fmt.Errorf("shard: bad shard count %d (1..%d)", c.Shards, MaxShards)
	}
	if c.Shards > 1 && c.Dir == "" {
		return fmt.Errorf("shard: Config.Dir is required for %d shards (per-shard region directories)", c.Shards)
	}
	if c.RecoveryWorkers <= 0 {
		c.RecoveryWorkers = c.Shards
	}
	if c.RecoveryWorkers > c.Shards {
		c.RecoveryWorkers = c.Shards
	}
	return nil
}

// shardConfig derives shard k's core configuration. A single-shard store
// uses the base paths unchanged, keeping the on-disk layout identical to
// a direct core.Open; multi-shard stores suffix the device image and
// nest per-shard region directories.
func (c *Config) shardConfig(k int) core.Config {
	sc := c.Config
	sc.Shards = 1
	if c.Shards > 1 {
		if sc.DevicePath != "" {
			sc.DevicePath = fmt.Sprintf("%s.shard%d", c.Config.DevicePath, k)
		}
		sc.Dir = filepath.Join(c.Dir, fmt.Sprintf("shard-%d", k))
	}
	return sc
}

// Shard is one independent PM instance plus its key-value tree and
// cross-shard intent table.
type Shard struct {
	// ID is the shard's index, the value key hashes route to.
	ID int
	// PM is the shard's persistent-memory instance.
	PM *core.PM
	// Tree is the shard's key-value B+ tree, rooted at the same
	// "kvserve.root" static a direct kvserve server uses.
	Tree *pds.BPTree
	// RecoveryTime is how long this shard's core.Attach took (region
	// remap, heap scavenge, log replay).
	RecoveryTime time.Duration
	// Recovery is the shard transaction system's replay statistics.
	Recovery mtm.RecoveryStats

	stageRoot pmem.Addr // "shard.xstage" static: intent-table root pointer
	mu        sync.Mutex
	stage     *pds.HashTable // cached intent table, created on first cross-shard MSET
}

// Store routes a key-value workload across shards.
type Store struct {
	cfg    Config
	shards []*Shard
	hash   func(string) uint64 // nil routes by HashKey; collision tests substitute their own
	now    func() int64        // clock for expiry masking, fake-able in tests
	xid    atomic.Uint64

	// xfree recycles cross-shard MSETs' working memory (xstage.go).
	xmu   sync.Mutex
	xfree []*xscratch

	// recoveredCommits/Aborts count cross-shard intents resolved at the
	// most recent Attach.
	recoveredCommits int
	recoveredAborts  int
}

var (
	telXMSets          = telemetry.NewCounter("shard_xmsets_total", "Cross-shard MSET transactions started (two or more participant shards).")
	telXAbort          = telemetry.NewCounter("shard_xmset_aborts_total", "Cross-shard MSET transactions aborted before the prepare point.")
	telXCollisionSkips = telemetry.NewCounter("shard_xmset_collision_skips_total", "Cross-shard MSET pairs skipped at apply or roll-forward because a different key took the slot after the prepare (hash collision).")
)

// Open creates or reincarnates a sharded store: one device per shard,
// recovered concurrently, then cross-shard intent resolution.
func Open(cfg Config) (*Store, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	mode := scm.DelayOff
	if cfg.EmulateLatency {
		mode = scm.DelaySpin
	}
	devs := make([]*scm.Device, cfg.Shards)
	for k := range devs {
		sc := cfg.shardConfig(k)
		dev, err := scm.Open(scm.Config{
			Size:         sc.DeviceSize,
			Path:         sc.DevicePath,
			WriteLatency: sc.WriteLatency,
			Mode:         mode,
		})
		if err != nil {
			for _, d := range devs[:k] {
				d.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", k, err)
		}
		devs[k] = dev
	}
	return Attach(devs, cfg)
}

// Attach builds the sharded store over already-open devices (used after
// a simulated crash, where the devices survive and every shard's stack
// reincarnates). len(devs) must equal the configured shard count.
func Attach(devs []*scm.Device, cfg Config) (*Store, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(devs) != cfg.Shards {
		return nil, fmt.Errorf("shard: %d devices for %d shards", len(devs), cfg.Shards)
	}
	st := &Store{
		cfg:    cfg,
		now:    func() int64 { return time.Now().UnixNano() },
		shards: make([]*Shard, cfg.Shards),
	}

	attach := func(k int) error {
		start := time.Now()
		pm, err := core.Attach(devs[k], cfg.shardConfig(k))
		if err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
		sh := &Shard{ID: k, PM: pm, RecoveryTime: time.Since(start), Recovery: pm.TM().Recovery()}
		root, _, err := pm.Static("kvserve.root", 8)
		if err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
		sh.Tree = pds.NewBPTree(root)
		sh.stageRoot, _, err = pm.Static("shard.xstage", 8)
		if err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
		st.shards[k] = sh
		return nil
	}

	var firstErr error
	if cfg.RecoveryWorkers <= 1 {
		// Strictly sequential on the calling goroutine: deterministic
		// crash workloads need a reproducible device-event order.
		for k := range st.shards {
			if err := attach(k); err != nil {
				firstErr = err
				break
			}
		}
	} else {
		sem := make(chan struct{}, cfg.RecoveryWorkers)
		errs := make([]error, cfg.Shards)
		var wg sync.WaitGroup
		for k := range st.shards {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				errs[k] = attach(k)
			}(k)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	if firstErr != nil {
		for _, sh := range st.shards {
			if sh != nil {
				sh.PM.Close()
			}
		}
		return nil, firstErr
	}

	commits, aborts, err := st.resolveIntents()
	if err != nil {
		for _, sh := range st.shards {
			sh.PM.Close()
		}
		return nil, err
	}
	st.recoveredCommits, st.recoveredAborts = commits, aborts
	st.registerTelemetry()
	return st, nil
}

// registerTelemetry publishes per-shard gauges. Like core's stack
// gauges, a reincarnated store's registrations win over the previous
// instance's.
func (st *Store) registerTelemetry() {
	shards := st.shards
	telemetry.NewSampled("shard_count", "Shards behind the sharded store front end.",
		func() float64 { return float64(len(shards)) })
	for _, sh := range shards {
		sh := sh
		telemetry.NewSampled(fmt.Sprintf("shard%d_commits", sh.ID), "Committed transactions on this shard.",
			func() float64 { return float64(sh.PM.TM().Snapshot().Commits) })
		telemetry.NewSampled(fmt.Sprintf("shard%d_fences", sh.ID), "Persistence fences issued by this shard's device.",
			func() float64 { return float64(sh.PM.Device().Snapshot().Fences) })
		telemetry.NewSampled(fmt.Sprintf("shard%d_fences_per_commit", sh.ID), "This shard's device fences divided by its committed transactions.",
			func() float64 {
				commits := sh.PM.TM().Snapshot().Commits
				if commits == 0 {
					return 0
				}
				return float64(sh.PM.Device().Snapshot().Fences) / float64(commits)
			})
		telemetry.NewGauge(fmt.Sprintf("shard%d_recovery_ns", sh.ID), "This shard's recovery time at the most recent attach, in nanoseconds.").
			Set(sh.RecoveryTime.Nanoseconds())
	}
	telemetry.NewGauge("shard_recovered_xmset_commits", "Cross-shard intents rolled forward at the most recent attach.").
		Set(int64(st.recoveredCommits))
	telemetry.NewGauge("shard_recovered_xmset_aborts", "Cross-shard intents rolled back at the most recent attach.").
		Set(int64(st.recoveredAborts))
}

// NShards returns the shard count.
func (st *Store) NShards() int { return len(st.shards) }

// ShardOf returns the shard index key routes to.
func (st *Store) ShardOf(key string) int {
	return keyShard(st, key)
}

// Shard returns shard k (for stats and tests).
func (st *Store) Shard(k int) *Shard { return st.shards[k] }

// RecoveredIntents reports how many cross-shard intents the most recent
// Attach rolled forward and rolled back.
func (st *Store) RecoveredIntents() (commits, aborts int) {
	return st.recoveredCommits, st.recoveredAborts
}

// Close shuts every shard down cleanly.
func (st *Store) Close() error {
	var firstErr error
	for _, sh := range st.shards {
		if err := sh.PM.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", sh.ID, err)
		}
	}
	return firstErr
}

// Drain blocks until every shard's pending asynchronous log truncations
// have completed.
func (st *Store) Drain() {
	for _, sh := range st.shards {
		sh.PM.TM().Drain()
	}
}

// StopTruncation halts every shard's asynchronous truncation manager
// without draining — the crash-test idiom before Device.Crash.
func (st *Store) StopTruncation() {
	for _, sh := range st.shards {
		sh.PM.TM().StopTruncation()
	}
}

// Devices returns every shard's SCM device in shard order (for crash
// injection in tests, and for reattaching with Attach afterwards).
func (st *Store) Devices() []*scm.Device {
	devs := make([]*scm.Device, len(st.shards))
	for i, sh := range st.shards {
		devs[i] = sh.PM.Device()
	}
	return devs
}

// AggregateStats sums transaction and device counters across shards.
type AggregateStats struct {
	Commits, Aborts, Views  uint64
	Stores, Flushes, Fences uint64
}

// Stats returns the store's aggregate counters.
func (st *Store) Stats() AggregateStats {
	var agg AggregateStats
	for _, sh := range st.shards {
		tm := sh.PM.TM().Snapshot()
		dev := sh.PM.Device().Snapshot()
		agg.Commits += tm.Commits
		agg.Aborts += tm.Aborts
		agg.Views += tm.Views
		agg.Stores += dev.Stores
		agg.Flushes += dev.Flushes
		agg.Fences += dev.Fences
	}
	return agg
}
