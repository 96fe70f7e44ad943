// Package core assembles the Mnemosyne stack — SCM device, region
// runtime, persistent heap and durable transaction system — into one
// coherent persistent-memory instance, mirroring the paper's layered
// architecture (Figure 1):
//
//	Application
//	  Durable Transactions          (internal/mtm)
//	  Persistence Primitives        (internal/pmem, rawl, pheap)
//	  Persistent Regions            (internal/region)
//	OS Kernel: Region Manager       (internal/region.Manager)
//	Hardware: SCM                   (internal/scm)
//
// The root package re-exports this as the library's public API.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/mtm"
	"repro/internal/pgc"
	"repro/internal/pheap"
	"repro/internal/pmem"
	"repro/internal/rawl"
	"repro/internal/region"
	"repro/internal/scm"
	"repro/internal/telemetry"
)

// Config assembles a persistent-memory instance.
type Config struct {
	// DevicePath optionally backs the emulated SCM with a file so data
	// survives process exit. Empty keeps the device in memory (data
	// then survives simulated crashes, but not process exit).
	DevicePath string
	// DeviceSize is the SCM capacity (default 256 MB).
	DeviceSize int64
	// Dir is the backing directory for region files; empty follows
	// MNEMOSYNE_REGION_PATH and then the current directory.
	Dir string
	// WriteLatency is the emulated extra PCM write latency; zero uses
	// the paper's 150 ns.
	WriteLatency time.Duration
	// EmulateLatency spins for write delays, like the paper's
	// evaluation platform. Off, persistence semantics are identical but
	// time is not modeled.
	EmulateLatency bool
	// HeapSize reserves the persistent heap on first open (default
	// 64 MB, rounded up to pages). The heap is created lazily at first
	// use either way.
	HeapSize int64
	// AsyncTruncation moves transaction-log truncation off the commit
	// path (Figure 6's optimization).
	AsyncTruncation bool
	// Threads is the number of transaction-thread slots (default 32): it
	// bounds how many transactions run at once through Atomic plus the
	// threads explicitly held through NewThread. Slots are recycled, so
	// neither cumulative threads nor idle callers count against it.
	Threads int
	// LeaseTimeout bounds how long Atomic waits for a slot when all
	// Threads of them are busy (default 5s). Negative disables waiting:
	// Atomic fails immediately with ErrTooManyThreads.
	LeaseTimeout time.Duration
	// GroupCommit routes commits through the group-commit coordinator:
	// concurrent transactions share one durability fence per commit
	// epoch instead of fencing individually. Requires redo logging (the
	// default).
	GroupCommit bool
	// GroupCommitWait is the epoch leader's gathering window while other
	// writers are active (default 50µs; negative disables waiting). An
	// idle system commits at single-operation latency regardless.
	GroupCommitWait time.Duration
	// GroupCommitBatch caps members per commit epoch (default 64).
	GroupCommitBatch int
	// LatencySampleRate samples commit/abort latency observations 1-in-N
	// (default 16; 1 records every transaction — what phase attribution
	// wants). Rounded up to a power of two.
	LatencySampleRate int
	// CommitMode selects the durable-commit protocol: "redo" (default),
	// "undo" (in-place stores guarded by a persisted undo record — one
	// fewer fence per commit), or "hybrid" (undo for write sets up to
	// HybridUndoMax, redo above). Undo modes require synchronous
	// truncation. See mtm.Config.CommitMode.
	CommitMode string
	// HybridUndoMax is hybrid mode's write-set threshold (default 16).
	HybridUndoMax int
	// ReadCacheWords sizes the volatile read-through cache of hot
	// persistent words, per memory view (0 disables). Cached hits skip
	// the emulated SCM read path; coherence comes from the versioned
	// transaction locks.
	ReadCacheWords int
	// ReadLatency is the emulated extra PCM read latency charged on word
	// loads (default 0: reads are free, the paper's model). Set alongside
	// ReadCacheWords to make read-cache experiments meaningful.
	ReadLatency time.Duration
	// Shards is accepted for compatibility with the sharded front end's
	// configuration (internal/shard embeds this Config). A core instance
	// is always exactly one shard: 0 and 1 mean the same thing, and
	// Open/Attach reject larger values — multi-shard stores are built
	// with the shard package's Open, which derives one core.Config per
	// shard from the embedded base.
	Shards int
}

func (c *Config) fill() {
	if c.DeviceSize == 0 {
		c.DeviceSize = 256 << 20
	}
	if c.HeapSize == 0 {
		// A quarter of the device, capped at 64 MB, leaving room for
		// the static region, transaction logs and user regions.
		c.HeapSize = c.DeviceSize / 4
		if c.HeapSize > 64<<20 {
			c.HeapSize = 64 << 20
		}
	}
	if c.Threads == 0 {
		c.Threads = 32
	}
	if c.LeaseTimeout == 0 {
		c.LeaseTimeout = 5 * time.Second
	}
}

// PM is an open persistent-memory instance.
type PM struct {
	cfg  Config
	dev  *scm.Device
	rt   *region.Runtime
	heap *pheap.Heap
	tm   *mtm.TM
}

// Open creates or reincarnates a persistent-memory instance: it boots the
// region manager, remaps persistent regions, scavenges the heap and
// replays any committed-but-unflushed transactions.
func Open(cfg Config) (*PM, error) {
	cfg.fill()
	mode := scm.DelayOff
	if cfg.EmulateLatency {
		mode = scm.DelaySpin
	}
	dev, err := scm.Open(scm.Config{
		Size:         cfg.DeviceSize,
		Path:         cfg.DevicePath,
		WriteLatency: cfg.WriteLatency,
		ReadLatency:  cfg.ReadLatency,
		Mode:         mode,
	})
	if err != nil {
		return nil, err
	}
	return Attach(dev, cfg)
}

// Attach builds the software stack over an already-open device (used
// after a simulated crash, where the device survives and everything above
// it reincarnates).
func Attach(dev *scm.Device, cfg Config) (*PM, error) {
	cfg.fill()
	if cfg.Shards > 1 {
		return nil, fmt.Errorf("core: %d shards requested; a core instance is one shard — open multi-shard stores through the shard front end", cfg.Shards)
	}
	rt, err := region.Open(dev, region.Config{Dir: cfg.Dir})
	if err != nil {
		return nil, err
	}
	pm := &PM{cfg: cfg, dev: dev, rt: rt}

	heapPtr, _, err := rt.Static("core.heap", 8)
	if err != nil {
		return nil, err
	}
	mem := rt.NewMemory()
	if base := pmem.Addr(mem.LoadU64(heapPtr)); base == pmem.Nil {
		base, err := rt.PMapAt(heapPtr, cfg.HeapSize, 0)
		if err != nil {
			return nil, err
		}
		pm.heap, err = pheap.Format(rt, base, cfg.HeapSize, pheap.Config{Lanes: 16})
		if err != nil {
			return nil, err
		}
	} else {
		pm.heap, err = pheap.Open(rt, base)
		if errors.Is(err, pheap.ErrNoHeap) {
			// A crash between linking the heap region and Format's
			// commit point left the pointer set over unformatted
			// memory. The region exists solely for this heap and no
			// allocation can predate the missing magic, so reformat.
			pm.heap, err = pheap.Format(rt, base, cfg.HeapSize, pheap.Config{Lanes: 16})
		}
		if err != nil {
			return nil, err
		}
	}

	pm.tm, err = mtm.Open(rt, "core", mtm.Config{
		Heap:              pm.heap,
		Slots:             cfg.Threads,
		AsyncTruncation:   cfg.AsyncTruncation,
		GroupCommit:       cfg.GroupCommit,
		GroupCommitWait:   cfg.GroupCommitWait,
		GroupCommitBatch:  cfg.GroupCommitBatch,
		LatencySampleRate: cfg.LatencySampleRate,
		CommitMode:        cfg.CommitMode,
		HybridUndoMax:     cfg.HybridUndoMax,
		ReadCacheWords:    cfg.ReadCacheWords,
	})
	if err != nil {
		return nil, err
	}
	pm.registerTelemetry()
	return pm, nil
}

// registerTelemetry publishes sampled gauges over the stack's own stats
// interfaces. Sampling at exposition time keeps the store/flush hot paths
// free of shared-counter traffic; when a stack is reincarnated (crash
// tests, reopen), the latest instance wins the registration.
func (pm *PM) registerTelemetry() {
	dev, heap := pm.dev, pm.heap
	telemetry.NewSampled("scm_stores", "Cumulative uncached stores issued to the SCM device.",
		func() float64 { return float64(dev.Snapshot().Stores) })
	telemetry.NewSampled("scm_wt_stores", "Cumulative write-through stores issued to the SCM device.",
		func() float64 { return float64(dev.Snapshot().WTStores) })
	telemetry.NewSampled("scm_flushes", "Cumulative cache-line flushes issued to the SCM device.",
		func() float64 { return float64(dev.Snapshot().Flushes) })
	telemetry.NewSampled("scm_fences", "Cumulative persistence fences issued to the SCM device.",
		func() float64 { return float64(dev.Snapshot().Fences) })
	telemetry.NewSampled("scm_wt_bytes", "Cumulative bytes written through write-combining buffers.",
		func() float64 { return float64(dev.Snapshot().BytesWT) })
	telemetry.NewSampled("scm_accounted_delay_ns", "Cumulative emulated PCM write delay accounted, in nanoseconds.",
		func() float64 { return float64(dev.Snapshot().AccountedNs) })
	telemetry.NewSampled("scm_dirty_lines", "Cache lines currently dirty (unflushed) in the emulated cache.",
		func() float64 { return float64(dev.DirtyLines()) })
	telemetry.NewSampled("scm_pending_wt_words", "Write-combining buffer words not yet drained by a fence.",
		func() float64 { return float64(dev.PendingWTWords()) })
	telemetry.NewSampled("pheap_superblocks", "Superblocks managed by the persistent heap.",
		func() float64 { return float64(heap.Stats().Superblocks) })
	telemetry.NewSampled("pheap_free_superblocks", "Superblocks currently unassigned to any size class.",
		func() float64 { return float64(heap.Stats().FreeSuperblocks) })
	telemetry.NewSampled("pheap_large_bytes", "Bytes in the persistent heap's large-object extent.",
		func() float64 { return float64(heap.Stats().LargeBytes) })
	telemetry.NewSampled("pheap_large_free_bytes", "Free bytes in the persistent heap's large-object extent.",
		func() float64 { return float64(heap.Stats().LargeFreeBytes) })
	tm := pm.tm
	telemetry.NewSampled("mtm_fences_per_commit", "Device fences divided by committed transactions; group commit drives this below 1.",
		func() float64 {
			commits := tm.Snapshot().Commits
			if commits == 0 {
				return 0
			}
			return float64(dev.Snapshot().Fences) / float64(commits)
		})
}

// Close shuts the instance down cleanly: asynchronous truncation drains,
// caches flush, and (with a DevicePath) the device image is saved.
func (pm *PM) Close() error {
	pm.tm.Close()
	if err := pm.rt.Close(); err != nil {
		return err
	}
	return pm.dev.Close()
}

// Device exposes the emulated SCM (for crash injection in tests).
func (pm *PM) Device() *scm.Device { return pm.dev }

// Runtime exposes the region runtime.
func (pm *PM) Runtime() *region.Runtime { return pm.rt }

// Heap exposes the persistent heap.
func (pm *PM) Heap() *pheap.Heap { return pm.heap }

// TM exposes the transaction system.
func (pm *PM) TM() *mtm.TM { return pm.tm }

// Static returns the address of a named persistent static variable,
// allocating it on first use — the library analogue of the paper's
// pstatic keyword.
func (pm *PM) Static(name string, size int64) (addr pmem.Addr, created bool, err error) {
	return pm.rt.Static(name, size)
}

// PMap creates a dynamic persistent region of at least length bytes.
func (pm *PM) PMap(length int64) (pmem.Addr, error) {
	return pm.rt.PMap(length, 0)
}

// PMapAt creates a region and durably stores its address through the
// persistent pointer at ptr (the paper's leak-avoiding pmap signature).
func (pm *PM) PMapAt(ptr pmem.Addr, length int64) (pmem.Addr, error) {
	return pm.rt.PMapAt(ptr, length, 0)
}

// PUnmap deletes the dynamic region starting at addr.
func (pm *PM) PUnmap(addr pmem.Addr) error { return pm.rt.PUnmap(addr) }

// Memory returns a per-goroutine persistence-primitive view
// (store/wtstore/flush/fence at persistent addresses).
func (pm *PM) Memory() *region.Mem { return pm.rt.NewMemory() }

// NewThread returns a transaction thread for the calling goroutine. The
// caller owns the thread's log slot until Thread.Close returns it; hot
// loops that want a thread of their own keep one, everything else calls
// Atomic.
func (pm *PM) NewThread() (*mtm.Thread, error) { return pm.tm.NewThread() }

// Atomic runs fn as a durable memory transaction on a thread the
// transaction system keeps between calls (mtm.TM.AtomicSpanned): once a
// slot is bound, a transaction pays for its logging, allocation and
// ordering and nothing for its context. When all Threads slots are running
// transactions or explicitly leased it waits up to LeaseTimeout for one.
func (pm *PM) Atomic(fn func(tx *mtm.Tx) error) error {
	return pm.tm.AtomicSpanned(0, pm.cfg.LeaseTimeout, fn)
}

// AtomicSpanned is Atomic with an explicit parent span id: the transaction
// and its commit phases are attributed under the caller's span when tracing
// or attribution is enabled. Parent 0 is equivalent to Atomic.
func (pm *PM) AtomicSpanned(parent uint64, fn func(tx *mtm.Tx) error) error {
	return pm.tm.AtomicSpanned(parent, pm.cfg.LeaseTimeout, fn)
}

// AtomicBatch runs every fn inside one transaction: one log append and one
// durability fence (or one group-commit epoch) for the whole batch, where
// per-fn Atomic calls would pay a fence each. The batch commits or aborts
// as a unit: an error from any fn rolls back them all.
func (pm *PM) AtomicBatch(fns []func(tx *mtm.Tx) error) error {
	if len(fns) == 0 {
		return nil
	}
	return pm.Atomic(func(tx *mtm.Tx) error {
		for _, fn := range fns {
			if err := fn(tx); err != nil {
				return err
			}
		}
		return nil
	})
}

// View runs fn as a slot-free snapshot read transaction — the read-only
// counterpart of Atomic. Every load inside fn observes one consistent
// committed snapshot. A View takes no thread lease, writes no log record
// and issues no fence, so it succeeds even when every transaction thread
// is leased, and any number of Views run concurrently. fn may be retried
// on conflict with concurrent commits and must not write persistent
// memory.
func (pm *PM) View(fn func(r *mtm.ReadTx) error) error {
	return pm.tm.View(fn)
}

// ViewSpanned is View with an explicit parent span id: the snapshot read
// is attributed (as a "view" phase span) under the caller's span when
// tracing or attribution is enabled. Parent 0 is equivalent to View.
func (pm *PM) ViewSpanned(parent uint64, fn func(r *mtm.ReadTx) error) error {
	return pm.tm.ViewSpanned(parent, fn)
}

// Allocator returns a persistent-heap allocator handle (pmalloc/pfree)
// for non-transactional allocation.
func (pm *PM) Allocator() *pheap.Allocator { return pm.heap.NewAllocator() }

// CreateLog formats a tornbit raw word log of capacity words inside a
// fresh persistent region, rooted at the named static pointer.
func (pm *PM) CreateLog(name string, words int64) (*rawl.Log, error) {
	ptr, _, err := pm.rt.Static(name, 8)
	if err != nil {
		return nil, err
	}
	mem := pm.rt.NewMemory()
	if base := pmem.Addr(mem.LoadU64(ptr)); base != pmem.Nil {
		return nil, fmt.Errorf("core: log %q already exists; use OpenLog", name)
	}
	base, err := pm.rt.PMapAt(ptr, rawl.Size(words), 0)
	if err != nil {
		return nil, err
	}
	return rawl.Create(mem, base, words)
}

// Collect runs a conservative mark-sweep garbage collection over the
// persistent heap (internal/pgc), reclaiming allocations unreachable from
// any persistent word. The instance must be quiesced: no concurrent
// transactions or allocations. extraRoots pins blocks referenced only
// from volatile memory.
func (pm *PM) Collect(extraRoots ...pmem.Addr) (pgc.Report, error) {
	// Under asynchronous truncation a committed free is released only once
	// the log manager has truncated its record; until then the block still
	// counts as allocated and the sweep would free it a second time.
	pm.tm.Drain()
	gc, err := pgc.New(pm.rt, pm.heap)
	if err != nil {
		return pgc.Report{}, err
	}
	gc.SkipRegions = []pmem.Addr{pm.tm.RegionBase()}
	gc.ExtraRoots = extraRoots
	return gc.Collect()
}

// OpenLog reopens a named log, returning the records that survived (in
// append order) for the caller to replay.
func (pm *PM) OpenLog(name string) (*rawl.Log, [][]uint64, error) {
	ptr, created, err := pm.rt.Static(name, 8)
	if err != nil {
		return nil, nil, err
	}
	mem := pm.rt.NewMemory()
	base := pmem.Addr(mem.LoadU64(ptr))
	if created || base == pmem.Nil {
		return nil, nil, errors.New("core: no such log; use CreateLog")
	}
	return rawl.Open(mem, base)
}
