// Package mtm implements Mnemosyne's durable memory transactions (§5 of
// the paper): in-place updates of arbitrary persistent data structures
// with atomicity, durability and isolation.
//
// The design follows the paper's TinySTM-derived word-based software
// transactional memory:
//
//   - Lazy version management with write-ahead redo logging: values
//     written inside a transaction are buffered volatile-side and, at
//     commit, streamed with their addresses into the thread's persistent
//     tornbit RAWL. One log flush — a single fence — makes the whole
//     transaction durable. Memory itself is only updated after the log is
//     durable, so "the only requirement is that the log is written
//     completely before any data values are updated." The one exception
//     needs no log at all: what a transaction stores into a block it
//     allocated itself goes straight to memory and is flushed ahead of
//     the commit record, since nothing can reach the block until that
//     record publishes a pointer to it (Tx.storeFresh).
//
//   - Eager conflict detection with encounter-time locking over a global
//     array of volatile locks, each covering a slice of the persistent
//     address space. Writers acquire covering locks at first touch and
//     abort when the lock is taken; readers validate lock versions
//     against their snapshot, extending the snapshot when possible.
//
//   - A global timestamp counter incremented at every transaction
//     completion captures a total order over transactions. The commit
//     timestamp is stored in each log record, and recovery replays
//     committed transactions from all per-thread logs in counter order.
//
// Log truncation is synchronous by default (modified lines are flushed and
// the log truncated inside commit); asynchronous truncation moves that
// work to a log-manager goroutine, shortening commit latency at the cost
// of possible stalls when the log fills (§5, Figure 6).
//
// As an ablation the package also implements undo logging
// (Config.UndoLogging), which the paper rejects because it "would require
// ordering a log write before every memory update" — running it shows the
// cost of that extra ordering.
package mtm

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pheap"
	"repro/internal/pmem"
	"repro/internal/rawl"
	"repro/internal/region"
	"repro/internal/scm"
	"repro/internal/telemetry"
)

// Recovery metrics: counts aggregate over every Open in the process; the
// gauge holds the most recent replay's cost.
var (
	telRecoveryReplayed = telemetry.NewCounter("mtm_recovery_replayed_total",
		"committed transactions re-applied from per-thread logs at open")
	telRecoveryUndone = telemetry.NewCounter("mtm_recovery_undone_total",
		"uncommitted undo-mode transactions rolled back at open")
	telRecoveryNs = telemetry.NewGauge("mtm_recovery_ns",
		"duration of the most recent log replay at open, ns")
)

// telLatencySampleRate publishes the latency-histogram sampling rate so
// the exposition layer is no longer opaque about it: a consumer dividing
// histogram counts by commit counts can correct for the sampling. The
// most recently opened TM wins, matching the Sampled-gauge convention.
var telLatencySampleRate = telemetry.NewGauge("mtm_latency_sample_rate",
	"1-in-N sampling rate of the mtm latency histograms (commit/abort/group-commit wait)")

// sampleLatency reports whether the seq'th transaction on a thread should
// feed the latency histograms. Rate 1 (mask 0) times everything.
func (tm *TM) sampleLatency(seq uint64) bool {
	return tm.latMask == 0 || seq&tm.latMask == 1
}

// LatencySampleRate returns the configured 1-in-N histogram sampling rate.
func (tm *TM) LatencySampleRate() int { return tm.cfg.LatencySampleRate }

const (
	tmMagic = 0x4d4e4d544d303031 // "MNMTM001"

	// Log record tags.
	tagRedo       = 1 // ts, n, then n (addr,val) pairs
	tagUndoWrite  = 2 // addr, oldVal
	tagUndoCommit = 3 // ts
	tagRedoGroup  = 4 // ts, epoch, members, n, then n (addr,val) pairs
	tagUndoBatch  = 5 // n, then n (addr,oldVal) pairs — one whole write set

	// Lock table: 2^20 entries of one word each (8 MB volatile).
	lockBits  = 20
	lockCount = 1 << lockBits

	hdrSlotsOff    = 8
	hdrLogWordsOff = 16
)

// lock word encoding: bit63 = locked; when locked, low bits hold the owner
// thread id; when free, the word is the version (commit timestamp).
const lockedBit = uint64(1) << 63

// Config tunes the transaction system.
type Config struct {
	// Slots is the number of per-thread logs: the bound on explicitly
	// leased threads plus transactions running through TM.Atomic at one
	// time. Zero selects 32.
	Slots int
	// LogWords is each thread log's buffer capacity in words. Zero
	// selects 16384 (128 KB).
	LogWords int64
	// AsyncTruncation moves data flushing and log truncation off the
	// commit path onto a log-manager goroutine.
	AsyncTruncation bool
	// UndoLogging selects the undo-logging ablation: old values are
	// logged and fenced before each in-place write.
	UndoLogging bool
	// CommitMode selects how writing transactions reach durability:
	//
	//	"" or "redo" — the paper's write-ahead redo logging (default).
	//	"undo"       — every transaction commits through a batched undo
	//	               record: the whole old-value set is logged and
	//	               fenced once (the single ordering point), the new
	//	               values are stored in place, and a commit marker
	//	               fenced behind them. Two fences instead of redo's
	//	               three, at the cost of in-place stores on the
	//	               critical path.
	//	"hybrid"     — small write sets (at most HybridUndoMax words)
	//	               take the undo path; larger ones keep redo logging
	//	               and, when configured, group commit.
	//
	// Unlike the UndoLogging ablation there is no per-write fence: the
	// batched record preserves redo's one-ordering-point structure.
	// Undo and hybrid modes require synchronous truncation (a committed
	// redo record must never outlive its locks, or replay could clobber
	// a later in-place undo commit).
	CommitMode string
	// HybridUndoMax is the largest write set (in words) that commits
	// through the undo path in hybrid mode. Zero selects 16.
	HybridUndoMax int
	// ReadCacheWords sizes the per-thread (and per-pooled-reader)
	// volatile read-through cache of persistent words, validated against
	// the versioned lock words. Zero disables the cache.
	ReadCacheWords int
	// WriteThroughWriteback is an ablation: write values back with
	// streaming writes at commit instead of store+flush per line.
	WriteThroughWriteback bool
	// GroupCommit coalesces the durability fences of concurrent
	// transactions: committing transactions enqueue on a commit epoch
	// and the first member (the leader) issues one fence covering the
	// whole epoch. Requires redo logging (the default).
	GroupCommit bool
	// GroupCommitWait bounds how long an epoch leader waits for more
	// members while other writers are active; an idle system never
	// waits. Zero selects 50µs; negative disables the wait entirely.
	GroupCommitWait time.Duration
	// GroupCommitBatch caps members per epoch (a full epoch flushes
	// immediately). Zero selects 64.
	GroupCommitBatch int
	// Heap optionally attaches a persistent heap so transactions can
	// allocate with Tx.PMalloc / free with Tx.PFree.
	Heap *pheap.Heap
	// LatencySampleRate samples the commit/abort/group-wait latency
	// histograms 1-in-N (rounded up to a power of two). Zero selects 16,
	// the historical default; 1 times every transaction, which
	// attribution runs use. Counters are always exact regardless.
	LatencySampleRate int
}

// commitMode is Config.CommitMode parsed to a branch-friendly enum.
type commitMode int

const (
	modeRedo commitMode = iota
	modeUndo
	modeHybrid
)

func parseCommitMode(s string) (commitMode, error) {
	switch s {
	case "", "redo":
		return modeRedo, nil
	case "undo":
		return modeUndo, nil
	case "hybrid":
		return modeHybrid, nil
	}
	return modeRedo, fmt.Errorf("mtm: unknown commit mode %q (want redo, undo or hybrid)", s)
}

func (c *Config) fill() error {
	if c.Slots == 0 {
		c.Slots = 32
	}
	if c.Slots < 1 || c.Slots > 512 {
		return fmt.Errorf("mtm: slots %d out of range", c.Slots)
	}
	if c.LogWords == 0 {
		c.LogWords = 16384
	}
	if c.LogWords < 256 {
		return fmt.Errorf("mtm: log words %d too small", c.LogWords)
	}
	if c.UndoLogging && c.AsyncTruncation {
		return errors.New("mtm: undo logging does not support async truncation")
	}
	if c.UndoLogging && c.GroupCommit {
		return errors.New("mtm: group commit requires redo logging")
	}
	mode, err := parseCommitMode(c.CommitMode)
	if err != nil {
		return err
	}
	if mode != modeRedo {
		if c.AsyncTruncation {
			// The undo path's safety argument depends on every committed
			// redo record being durably truncated before its locks
			// release; asynchronous truncation breaks exactly that.
			return errors.New("mtm: undo commit modes require synchronous truncation")
		}
		if c.UndoLogging {
			return errors.New("mtm: commit mode conflicts with the UndoLogging ablation")
		}
	}
	if mode == modeUndo && c.GroupCommit {
		return errors.New(`mtm: group commit requires redo records; use CommitMode "hybrid"`)
	}
	if c.HybridUndoMax == 0 {
		c.HybridUndoMax = 16
	}
	if c.HybridUndoMax < 1 || c.HybridUndoMax > 1<<16 {
		return fmt.Errorf("mtm: hybrid undo threshold %d out of range", c.HybridUndoMax)
	}
	if c.ReadCacheWords < 0 || c.ReadCacheWords > 1<<24 {
		return fmt.Errorf("mtm: read cache size %d words out of range", c.ReadCacheWords)
	}
	if c.GroupCommitWait == 0 {
		c.GroupCommitWait = 50 * time.Microsecond
	}
	if c.GroupCommitBatch == 0 {
		c.GroupCommitBatch = 64
	}
	if c.GroupCommitBatch < 1 || c.GroupCommitBatch > 4096 {
		return fmt.Errorf("mtm: group-commit batch %d out of range", c.GroupCommitBatch)
	}
	if c.LatencySampleRate == 0 {
		c.LatencySampleRate = 16
	}
	if c.LatencySampleRate < 1 || c.LatencySampleRate > 1<<20 {
		return fmt.Errorf("mtm: latency sample rate %d out of range", c.LatencySampleRate)
	}
	// Round up to a power of two so sampling is a mask test.
	r := 1
	for r < c.LatencySampleRate {
		r <<= 1
	}
	c.LatencySampleRate = r
	return nil
}

// RecoveryStats reports what Open replayed (§6.3.2 measures this cost).
type RecoveryStats struct {
	// Replayed counts committed-but-not-written-back transactions
	// whose effects were reapplied.
	Replayed int
	// Undone counts uncommitted transactions rolled back (undo mode).
	Undone int
	// EpochsRolledBack counts group-commit member records dropped
	// because their epoch was incomplete at the crash.
	EpochsRolledBack int
	// Duration is the total replay time.
	Duration time.Duration
}

// TM is a durable transaction system over a region runtime.
type TM struct {
	rt   *region.Runtime
	cfg  Config
	mode commitMode // parsed Config.CommitMode

	base     pmem.Addr // TM region: header page + per-thread slots
	logBytes int64     // log portion of a slot
	slotSize int64     // log portion + the page holding the thread's large-object pointer word

	clock atomic.Uint64
	locks []atomic.Uint64

	// latMask drives latency-histogram sampling: a transaction is timed
	// when latSeq&latMask == latMask. Rate 1 gives mask 0 (every
	// transaction); the default rate 16 gives mask 15.
	latMask uint64

	// Thread-slot state. A slot is bound to one thread at a time and
	// recycled through freeSlots when the thread closes. bound counts the
	// threads holding a slot; parked are those of them that TM.Atomic
	// finished with and keeps for its next call, most recent last.
	// slotAvail exists only while someone waits for a slot: it is closed
	// (broadcast) and dropped when a slot frees or a thread parks.
	slotMu    sync.Mutex
	freeSlots []int
	nextSlot  int
	bound     int
	parked    []*Thread
	slotAvail chan struct{}

	mgr *logManager
	gc  *groupCommitter

	// readers is View's free list of ReadTx contexts, so there are never
	// more than the peak number of concurrent Views. Reuse matters beyond
	// allocation cost: each ReadTx owns a region.Mem whose device context
	// registers with the emulator for the device's lifetime, so minting
	// one per View would grow the context table without bound.
	readersMu sync.Mutex
	readers   []*ReadTx

	// activeWriters counts transactions in flight — begun and not yet
	// enqueued on an epoch, rolled back, or finished read-only; epoch
	// leaders consult it to decide whether waiting for more members is
	// worthwhile. Zero means an idle system, where waiting buys nothing.
	activeWriters atomic.Int64

	stats Stats

	recovery     RecoveryStats
	heapReplayed bool // recovery re-applied a heap bitmap op
}

// Stats counts transaction outcomes.
type Stats struct {
	Commits  atomic.Uint64
	Aborts   atomic.Uint64
	ReadOnly atomic.Uint64
	Views    atomic.Uint64
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	Commits, Aborts, ReadOnly, Views uint64
}

// Open creates or reopens a transaction system named name. The name keys a
// static pointer to the TM's log region, so the same name reaches the same
// logs across restarts; recovery replays any transactions that committed
// but whose data was not yet written back.
func Open(rt *region.Runtime, name string, cfg Config) (*TM, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	// Opening (and recovering) a transaction system restarts its commit
	// clock and may replay words outside the lock protocol, so any pooled
	// read-cache slab from before this point must not serve hits.
	rt.InvalidateReadCaches()
	tm := &TM{rt: rt, cfg: cfg}
	tm.mode, _ = parseCommitMode(cfg.CommitMode) // validated by fill
	tm.latMask = uint64(cfg.LatencySampleRate - 1)
	telLatencySampleRate.Set(int64(cfg.LatencySampleRate))
	tm.locks = make([]atomic.Uint64, lockCount)
	tm.logBytes = (rawl.Size(cfg.LogWords) + scm.PageSize - 1) &^ (scm.PageSize - 1)
	tm.slotSize = tm.logBytes + scm.PageSize

	root, _, err := rt.Static("mtm."+name, 8)
	if err != nil {
		return nil, err
	}
	mem := rt.NewMemory()
	base := pmem.Addr(mem.LoadU64(root))
	if base == pmem.Nil {
		// First run: create the log region.
		size := int64(scm.PageSize) + int64(cfg.Slots)*tm.slotSize
		base, err = rt.PMapAt(root, size, 0)
		if err != nil {
			return nil, err
		}
		tm.base = base
		if err := tm.create(mem); err != nil {
			return nil, err
		}
	} else {
		tm.base = base
		if mem.LoadU64(base) != tmMagic {
			// The root was durably linked to the region but the header
			// magic never committed: a crash interrupted creation. No
			// transaction can have run before the magic fence, so
			// re-running creation over the same region is safe.
			if err := tm.create(mem); err != nil {
				return nil, err
			}
			if cfg.AsyncTruncation {
				tm.mgr = newLogManager(tm)
			}
			if cfg.GroupCommit {
				tm.gc = newGroupCommitter(tm)
			}
			return tm, nil
		}
		slots := int(mem.LoadU64(base.Add(hdrSlotsOff)))
		logWords := int64(mem.LoadU64(base.Add(hdrLogWordsOff)))
		if slots != cfg.Slots || logWords != cfg.LogWords {
			return nil, fmt.Errorf("mtm: %q was created with slots=%d logWords=%d", name, slots, logWords)
		}
		if err := tm.recover(mem); err != nil {
			return nil, err
		}
	}

	if cfg.AsyncTruncation {
		tm.mgr = newLogManager(tm)
	}
	if cfg.GroupCommit {
		tm.gc = newGroupCommitter(tm)
	}
	return tm, nil
}

// create lays out the per-slot logs and commits the header; the magic
// written behind its fence is the creation's durability point.
func (tm *TM) create(mem pmem.Memory) error {
	for i := 0; i < tm.cfg.Slots; i++ {
		if _, err := rawl.Create(mem, tm.slotAddr(i), tm.cfg.LogWords); err != nil {
			return err
		}
	}
	mem.WTStoreU64(tm.base.Add(hdrSlotsOff), uint64(tm.cfg.Slots))
	mem.WTStoreU64(tm.base.Add(hdrLogWordsOff), uint64(tm.cfg.LogWords))
	mem.Fence()
	mem.WTStoreU64(tm.base, tmMagic)
	mem.Fence()
	return nil
}

// replayPair applies one logged (address, value) pair at recovery: a data
// word is stored, a heap bitmap op re-applied.
func (tm *TM) replayPair(mem pmem.Memory, addr, val uint64) error {
	if !pheap.IsBitOp(pmem.Addr(addr)) {
		mem.WTStoreU64(pmem.Addr(addr), val)
		return nil
	}
	if tm.cfg.Heap == nil {
		return fmt.Errorf("mtm: log holds heap bitmap entry %#x but no heap is attached", addr)
	}
	tm.heapReplayed = true
	return tm.cfg.Heap.ReplayBit(mem, pheap.BitOp{Word: pmem.Addr(addr), Mask: val})
}

// Recovery returns what Open replayed.
func (tm *TM) Recovery() RecoveryStats { return tm.recovery }

// Snapshot returns transaction outcome counters.
func (tm *TM) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Commits:  tm.stats.Commits.Load(),
		Aborts:   tm.stats.Aborts.Load(),
		ReadOnly: tm.stats.ReadOnly.Load(),
		Views:    tm.stats.Views.Load(),
	}
}

// Close closes the parked threads — their amortised undo records truncate
// here — and stops the log manager, if any. All committed transactions are
// already durable. A parked thread that fails its close check stays
// quarantined, as after any failed Thread.Close.
func (tm *TM) Close() {
	tm.slotMu.Lock()
	parked := tm.parked
	tm.parked = nil
	tm.slotMu.Unlock()
	for _, t := range parked {
		_ = t.Close() // counted in mtm_thread_release_failures_total
	}
	if tm.mgr != nil {
		tm.mgr.stop()
	}
}

// Drain blocks until asynchronous truncation has caught up with all
// commits so far.
func (tm *TM) Drain() {
	if tm.mgr != nil {
		tm.mgr.drain()
	}
}

// StopTruncation halts the asynchronous log manager without draining it,
// leaving committed-but-not-written-back transactions in the persistent
// logs. Crash-recovery tests and the reincarnation benchmark (§6.3.2) use
// this to create recoverable state deterministically. No-op without
// asynchronous truncation.
func (tm *TM) StopTruncation() {
	if tm.mgr != nil {
		tm.mgr.halt()
	}
}

// Heap returns the attached persistent heap, or nil.
func (tm *TM) Heap() *pheap.Heap { return tm.cfg.Heap }

// LiveThreads reports how many threads are in someone's hands: explicitly
// leased, or running a TM.Atomic transaction. Parked threads do not count.
func (tm *TM) LiveThreads() int {
	tm.slotMu.Lock()
	defer tm.slotMu.Unlock()
	return tm.bound - len(tm.parked)
}

// FreeSlots reports how many log slots a NewThread call could draw from
// right now: recycled, never-used, and those of parked threads.
func (tm *TM) FreeSlots() int {
	tm.slotMu.Lock()
	defer tm.slotMu.Unlock()
	return len(tm.freeSlots) + (tm.cfg.Slots - tm.nextSlot) + len(tm.parked)
}

// RegionBase returns the base address of the TM's log region. Garbage
// collectors skip it when scanning for roots: truncated logs still
// physically contain stale address words that would otherwise retain
// garbage conservatively.
func (tm *TM) RegionBase() pmem.Addr { return tm.base }

func (tm *TM) slotAddr(i int) pmem.Addr {
	return tm.base.Add(scm.PageSize + int64(i)*tm.slotSize)
}

// largeSlotAddr is slot i's persistent pointer word (Thread.largeSlot): the
// first word of the page after the log.
func (tm *TM) largeSlotAddr(i int) pmem.Addr {
	return tm.slotAddr(i).Add(tm.logBytes)
}

// lockIdx maps an address to its covering lock's index. The word index is
// scrambled so neighboring words map to different locks ("each lock
// covering a portion of the address space").
func (tm *TM) lockIdx(a pmem.Addr) uint32 {
	h := uint64(a) >> 3 * 0x9E3779B97F4A7C15
	return uint32(h >> (64 - lockBits))
}

func (tm *TM) lockAt(i uint32) *atomic.Uint64 { return &tm.locks[i] }

// recover replays the per-thread logs. Redo records of committed
// transactions are replayed in global timestamp order; undo records of
// uncommitted transactions (undo mode) are rolled back in reverse order.
// Group-commit records carry their epoch id and member count, and are
// replayed only when every record of the epoch survived: a crash before
// the epoch's covering fence loses at least one member's record (per the
// tornbit protocol, a torn record does not count as present), which rolls
// the entire epoch back — no member of an unfenced epoch can have reached
// in-place memory, since write-back strictly follows the fence.
//
// A pair whose address carries pheap's bitmap-op tag is a transactional
// allocation or free (or, in an undo record, its inverse) and is applied to
// the heap's persistent bitmap instead of stored; setting and clearing a
// bit are idempotent, and timestamp order replays a free before a later
// transaction's reallocation of the same block.
func (tm *TM) recover(mem pmem.Memory) error {
	start := time.Now()
	type committed struct {
		ts    uint64
		pairs []uint64 // n (addr,val) pairs, flattened
	}
	var redo []committed
	type groupRec struct {
		ts, epoch, members uint64
		pairs              []uint64
	}
	var groups []groupRec
	epochCount := make(map[uint64]uint64)
	var maxTs uint64

	for i := 0; i < tm.cfg.Slots; i++ {
		log, recs, err := rawl.Open(mem, tm.slotAddr(i))
		if err != nil {
			return fmt.Errorf("mtm: slot %d: %w", i, err)
		}
		// In the undo modes, identify the suffix of old-value records
		// with no commit record and roll them back in reverse. The
		// per-write ablation leaves tagUndoWrite records; the batched
		// commit mode leaves at most one tagUndoBatch record (a thread
		// runs one transaction at a time, and every committed batch is
		// terminated by a tagUndoCommit marker).
		var pendingUndo [][]uint64
		var pendingBatch [][]uint64
		for _, r := range recs {
			if len(r) < 1 {
				continue
			}
			switch r[0] {
			case tagRedo:
				// [tag, ts, n, addr1, val1, ..., addrN, valN]
				if len(r) < 3 {
					continue
				}
				ts, n := r[1], r[2]
				if uint64(len(r)) < 3+2*n {
					continue
				}
				redo = append(redo, committed{ts: ts, pairs: r[3 : 3+2*n]})
				if ts > maxTs {
					maxTs = ts
				}
			case tagRedoGroup:
				// [tag, ts, epoch, members, n, addr1, val1, ...]
				if len(r) < 5 {
					continue
				}
				ts, ep, members, n := r[1], r[2], r[3], r[4]
				if members == 0 || uint64(len(r)) < 5+2*n {
					continue
				}
				groups = append(groups, groupRec{ts: ts, epoch: ep, members: members, pairs: r[5 : 5+2*n]})
				epochCount[ep]++
				// Advance the clock past every observed timestamp, even a
				// rolled-back epoch's: its members' timestamps must not
				// be minted again.
				if ts > maxTs {
					maxTs = ts
				}
			case tagUndoWrite: // [tag, addr, oldVal]
				if len(r) == 3 {
					pendingUndo = append(pendingUndo, r)
				}
			case tagUndoBatch: // [tag, n, addr1, old1, ..., addrN, oldN]
				if len(r) < 2 {
					continue
				}
				if n := r[1]; uint64(len(r)) >= 2+2*n {
					pendingBatch = append(pendingBatch, r[:2+2*n])
				}
			case tagUndoCommit: // [tag, ts] — terminates both undo flavors
				pendingUndo = pendingUndo[:0]
				pendingBatch = pendingBatch[:0]
				if len(r) == 2 && r[1] > maxTs {
					maxTs = r[1]
				}
			}
		}
		// A thread runs one transaction at a time, so an unterminated
		// suffix of undo records is exactly one uncommitted
		// transaction: roll its writes back in reverse order.
		for j := len(pendingUndo) - 1; j >= 0; j-- {
			r := pendingUndo[j]
			if err := tm.replayPair(mem, r[1], r[2]); err != nil {
				return err
			}
		}
		// A torn undo apply — the batch record fenced, the in-place
		// stores interrupted — rolls back exactly: every address reverts
		// to its logged old value, in reverse write order.
		for j := len(pendingBatch) - 1; j >= 0; j-- {
			r := pendingBatch[j]
			n := r[1]
			for k := int64(n) - 1; k >= 0; k-- {
				if err := tm.replayPair(mem, r[2+2*k], r[3+2*k]); err != nil {
					return err
				}
			}
		}
		if len(pendingUndo) > 0 || len(pendingBatch) > 0 {
			tm.recovery.Undone += len(pendingBatch)
			if len(pendingUndo) > 0 {
				tm.recovery.Undone++
			}
			mem.Fence()
		}
		log.TruncateAll()
		_ = log
	}

	// Admit only complete epochs; incomplete ones are the crash's
	// rollback and their records are simply dropped (the logs were
	// truncated above).
	for _, g := range groups {
		if epochCount[g.epoch] == g.members {
			redo = append(redo, committed{ts: g.ts, pairs: g.pairs})
		} else {
			tm.recovery.EpochsRolledBack++
		}
	}

	sort.Slice(redo, func(i, j int) bool { return redo[i].ts < redo[j].ts })
	for _, c := range redo {
		n := uint64(len(c.pairs) / 2)
		for k := uint64(0); k < n; k++ {
			if err := tm.replayPair(mem, c.pairs[2*k], c.pairs[2*k+1]); err != nil {
				return err
			}
		}
		tm.recovery.Replayed++
		if telemetry.TraceEnabled() {
			telemetry.Emit(telemetry.EvRecoveryReplay, 0, c.ts, n)
		}
	}
	if len(redo) > 0 {
		mem.Fence()
	}
	if tm.heapReplayed {
		// The heap scavenged its bitmaps before these logs were replayed
		// over them.
		tm.cfg.Heap.Rescan()
	}
	tm.clock.Store(maxTs)
	tm.recovery.Duration = time.Since(start)
	telRecoveryReplayed.Add(uint64(tm.recovery.Replayed))
	telRecoveryUndone.Add(uint64(tm.recovery.Undone))
	telRecoveryNs.Set(tm.recovery.Duration.Nanoseconds())
	return nil
}
