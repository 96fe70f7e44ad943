package mtm

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/pheap"
	"repro/internal/pmem"
	"repro/internal/rawl"
	"repro/internal/region"
	"repro/internal/scm"
	"repro/internal/telemetry"
)

// Stack-wide transaction metrics (internal/telemetry). Per-TM counts stay
// in TM.Snapshot; these aggregate over every TM in the process and feed
// the live exposition endpoint.
var (
	telCommits = telemetry.NewCounter("mtm_commits_total",
		"durable transactions committed (writing transactions)")
	telAborts = telemetry.NewCounter("mtm_aborts_total",
		"transaction attempts aborted on conflict")
	telReadOnly = telemetry.NewCounter("mtm_readonly_total",
		"transactions that committed without writes")
	telCommitLat = telemetry.NewHistogram("mtm_commit_latency_ns",
		"end-to-end Atomic() latency to durable commit, including retries, ns (sampled 1-in-mtm_latency_sample_rate)")
	telAbortLat = telemetry.NewHistogram("mtm_abort_latency_ns",
		"latency of attempts that ended in a conflict abort, ns (sampled 1-in-mtm_latency_sample_rate)")
)

// Thread-lifecycle metrics. A lease is any successful slot binding
// (NewThread, Lease, or a TM.Atomic that found no parked thread); a release
// is a successful Close.
var (
	telLeases = telemetry.NewCounter("mtm_thread_leases_total",
		"transaction threads bound to a log slot")
	telReleases = telemetry.NewCounter("mtm_thread_releases_total",
		"transaction threads closed, their slot recycled")
	telLeaseWaits = telemetry.NewCounter("mtm_lease_waits_total",
		"Lease and TM.Atomic calls that had to wait for a slot")
	telLeaseTimeouts = telemetry.NewCounter("mtm_lease_timeouts_total",
		"Lease and TM.Atomic calls that gave up waiting for a slot")
	telReleaseFailures = telemetry.NewCounter("mtm_thread_release_failures_total",
		"Thread.Close calls that failed; the slot is quarantined, not recycled")
	telLiveThreads = telemetry.NewGauge("mtm_live_threads",
		"transaction threads currently bound to log slots (leased, running or parked)")
	telPostCommitErr = telemetry.NewCounter("mtm_postcommit_cleanup_errors_total",
		"deferred frees that failed after the transaction was already durable")
)

// Commit-mode attribution: how many durable commits took the batched undo
// path versus redo logging. Together with the per-phase fence counters
// (undo_log/undo_apply vs log_fence/truncate) this publishes the
// undo-vs-redo head-to-head the hybrid mode is built on.
var (
	telUndoCommits = telemetry.NewCounter("mtm_undo_commits_total",
		"transactions committed through the batched undo path")
	telRedoCommits = telemetry.NewCounter("mtm_redo_commits_total",
		"transactions committed through redo logging (solo or group commit)")
)

// Out-of-log payload: what transactions stored straight into blocks they
// had allocated themselves (Tx.storeFresh), and what that cost in line
// flushes ahead of the commit record. Counted at the flush, so aborted
// attempts do not show.
var (
	telFreshBytes = telemetry.NewCounter("mtm_fresh_bytes_total",
		"bytes committed transactions stored into blocks they allocated themselves, bypassing the log")
	telFreshLines = telemetry.NewCounter("mtm_fresh_lines_flushed_total",
		"cache lines of such blocks flushed ahead of the commit record")
)

// UndoCommits returns the process-wide count of transactions committed
// through the undo path; RedoCommits its redo counterpart. Benchmarks
// diff them around a run to report the hybrid split.
func UndoCommits() uint64 { return telUndoCommits.Value() }

// RedoCommits returns the process-wide count of transactions committed
// through redo logging (solo or group commit).
func RedoCommits() uint64 { return telRedoCommits.Value() }

// ErrTooManyThreads reports that every per-thread log slot is taken.
var ErrTooManyThreads = errors.New("mtm: out of log slots")

// ErrLeaseTimeout reports that Lease or TM.Atomic gave up waiting for a slot.
var ErrLeaseTimeout = errors.New("mtm: timed out waiting for a log slot")

// conflict is the panic value used to unwind a transaction on a conflict
// abort; Atomic recovers it and retries.
type conflict struct{}

// txFailure carries a non-conflict fatal error out of transactional code.
type txFailure struct{ err error }

// Thread is a per-goroutine transaction context bound to one persistent
// log slot. Threads must not be shared between goroutines. Close returns
// the slot for reuse; a slot may serve many successive logical threads
// over the process's lifetime.
type Thread struct {
	tm     *TM
	id     uint64 // slot+1; stored in lock words while held
	slot   int    // 0-based log-slot index
	mem    *region.Mem
	log    *rawl.Log
	logPos rawl.Pos
	alloc  *pheap.Allocator

	// largeSlot is the thread's persistent pointer word: the destination
	// pheap's lane log needs for a large-object PMalloc or FreeAddr issued
	// inside a transaction. Small blocks never touch it. The word after it
	// serves the asynchronous log manager the same way when it frees this
	// thread's large blocks (freeLarge).
	largeSlot pmem.Addr

	// pendingTrunc counts this slot's truncation jobs still queued at the
	// asynchronous log manager; Close drains it to zero before the slot
	// may be recycled (a late TruncateTo from a previous lease would
	// clobber the next lease's log head).
	pendingTrunc atomic.Int64

	// pending is this thread's group-commit enqueue slot, embedded so
	// joining an epoch allocates nothing. Valid only between the
	// coordinator's enqueue and the member's wake-up.
	pending pendingCommit
	// wake parks this thread as a non-leading epoch member: the leader
	// sends one token once the epoch is durable and its locks released.
	// Made on the thread's first group commit, 1-buffered.
	wake chan struct{}

	tx     Tx
	latSeq uint64 // transaction count for latency-histogram sampling

	// undoDirty records that committed undo batch/marker records are
	// still in the log (truncation is amortized); Close truncates them
	// before the empty-log handoff check.
	undoDirty bool

	// spanParent is the parent span id of the next Atomic's root span (the
	// request's exec span in kvserve), set by TM.AtomicSpanned for the one
	// call; txnSpan is the live Atomic root span id, the parent of every
	// commit-phase span.
	spanParent uint64
	txnSpan    uint64
}

// takeSlotLocked pops a recycled slot if one is available, preferring
// reuse over minting a never-used slot. Caller holds slotMu.
func (tm *TM) takeSlotLocked() (int, bool) {
	if n := len(tm.freeSlots); n > 0 {
		slot := tm.freeSlots[n-1]
		tm.freeSlots = tm.freeSlots[:n-1]
		return slot, true
	}
	if tm.nextSlot < tm.cfg.Slots {
		slot := tm.nextSlot
		tm.nextSlot++
		return slot, true
	}
	return -1, false
}

// wakeLocked wakes everyone waiting for a slot or a parked thread.
// Caller holds slotMu.
func (tm *TM) wakeLocked() {
	if tm.slotAvail != nil {
		close(tm.slotAvail)
		tm.slotAvail = nil
	}
}

// releaseSlot returns a slot to the free list.
func (tm *TM) releaseSlot(slot int) {
	tm.slotMu.Lock()
	tm.freeSlots = append(tm.freeSlots, slot)
	tm.wakeLocked()
	tm.slotMu.Unlock()
}

// take hands the caller a thread without waiting. With reuse (TM.Atomic)
// that is the most recently parked thread exactly as its last transaction
// left it: nothing is allocated, opened or checked, and the device sees
// nothing. Otherwise, or with nothing parked, it is a new thread on a free
// slot; when no slot is free the longest-parked thread is closed for its
// slot, so threads kept for TM.Atomic never starve an explicit lease. Only
// there does a slot change hands, so only there is the empty-log contract
// checked (closeCheck, then bindSlot). When every slot is in someone's
// hands take returns the channel that closes once that changes.
func (tm *TM) take(reuse bool) (*Thread, <-chan struct{}, error) {
	for {
		tm.slotMu.Lock()
		if n := len(tm.parked); reuse && n > 0 {
			t := tm.parked[n-1]
			tm.parked[n-1] = nil
			tm.parked = tm.parked[:n-1]
			tm.slotMu.Unlock()
			return t, nil, nil
		}
		slot, ok := tm.takeSlotLocked()
		var victim *Thread
		if !ok && len(tm.parked) > 0 {
			victim = tm.parked[0]
			n := copy(tm.parked, tm.parked[1:])
			tm.parked[n] = nil
			tm.parked = tm.parked[:n]
		}
		if !ok && victim == nil {
			if tm.slotAvail == nil {
				tm.slotAvail = make(chan struct{})
			}
			ch := tm.slotAvail
			tm.slotMu.Unlock()
			return nil, ch, nil
		}
		tm.slotMu.Unlock()
		if victim != nil {
			if victim.retire() != nil {
				continue // quarantined with its slot; look again
			}
			slot = victim.slot
		}
		t, err := tm.bindSlot(slot)
		return t, nil, err
	}
}

// acquire is take with a context-bounded wait.
func (tm *TM) acquire(ctx context.Context, reuse bool) (*Thread, error) {
	t, ch, err := tm.take(reuse)
	if ch == nil {
		return t, err
	}
	telLeaseWaits.Inc()
	wait := telemetry.SpanBegin(telemetry.PhaseLeaseWait, 0, 0)
	defer wait.End()
	for {
		select {
		case <-ch:
		case <-ctx.Done():
			telLeaseTimeouts.Inc()
			return nil, fmt.Errorf("%w: %w", ErrLeaseTimeout, ctx.Err())
		}
		if t, ch, err = tm.take(reuse); ch == nil {
			return t, err
		}
	}
}

// bindSlot attaches a fresh Thread to a leased slot. The slot's log must
// be empty — the durability contract of slot handoff — so a bind that
// finds live records quarantines the slot (it is not recycled) and
// reports the bug instead of replaying another thread's state.
func (tm *TM) bindSlot(slot int) (*Thread, error) {
	mem := tm.rt.NewMemory()
	if tm.cfg.ReadCacheWords > 0 {
		mem.EnableReadCache(tm.cfg.ReadCacheWords)
	}
	log, recs, err := rawl.Open(mem, tm.slotAddr(slot))
	if err != nil {
		return nil, err
	}
	if len(recs) != 0 {
		// Open truncated all logs after recovery and Close verifies
		// truncation before recycling, so live records can only mean a
		// bug.
		return nil, fmt.Errorf("mtm: slot %d has live records", slot)
	}
	t := &Thread{
		tm:        tm,
		id:        uint64(slot + 1),
		slot:      slot,
		mem:       mem,
		log:       log,
		largeSlot: tm.largeSlotAddr(slot),
	}
	if tm.cfg.Heap != nil {
		t.alloc = tm.cfg.Heap.NewAllocator()
	}
	t.tx.t = t
	tm.slotMu.Lock()
	tm.bound++
	tm.slotMu.Unlock()
	telLeases.Inc()
	telLiveThreads.Add(1)
	return t, nil
}

// NewThread binds a new transaction thread to a log slot for the caller to
// keep until Thread.Close: a recycled or never-used slot, else that of a
// thread parked by TM.Atomic. It fails immediately with ErrTooManyThreads
// when every slot is leased or running a transaction; Lease waits instead.
func (tm *TM) NewThread() (*Thread, error) {
	t, ch, err := tm.take(false)
	if ch != nil {
		return nil, ErrTooManyThreads
	}
	return t, err
}

// Lease is NewThread with a context-bounded wait: when every slot is
// taken it blocks until one frees or ctx is cancelled. On cancellation the
// error matches both ErrLeaseTimeout and ctx.Err() under errors.Is.
func (tm *TM) Lease(ctx context.Context) (*Thread, error) {
	return tm.acquire(ctx, false)
}

// Atomic runs fn as one durable transaction (see Thread.Atomic) on a thread
// the TM supplies, for callers that keep none of their own. It waits
// without bound for a slot when all of them are in use.
func (tm *TM) Atomic(fn func(tx *Tx) error) error {
	return tm.AtomicSpanned(0, 0, fn)
}

// AtomicSpanned is Atomic with the transaction's span parented under parent
// (0 for none) — the write-side twin of ViewSpanned — and a bound on the
// wait for a slot: negative fails at once with ErrTooManyThreads, zero
// waits without bound.
//
// The thread is parked when the transaction is over and handed as it is to
// the next call, so a steady stream of transactions binds a slot once. It
// is parked only if Thread.Atomic returns; when fn panics the thread may
// hold locks or a half-built log record, and is closed instead — recycled
// or quarantined as Thread.Close decides.
func (tm *TM) AtomicSpanned(parent uint64, wait time.Duration, fn func(tx *Tx) error) error {
	t, err := tm.checkout(wait)
	if err != nil {
		return err
	}
	returned := false
	defer func() {
		if !returned {
			_ = t.Close() // counted in mtm_thread_release_failures_total
			return
		}
		tm.slotMu.Lock()
		tm.parked = append(tm.parked, t)
		tm.wakeLocked()
		tm.slotMu.Unlock()
	}()
	t.spanParent = parent
	err = t.Atomic(fn)
	t.spanParent = 0
	returned = true
	return err
}

// checkout is acquire for TM.Atomic; the context a bounded wait needs is
// built only once there is something to wait for.
func (tm *TM) checkout(wait time.Duration) (*Thread, error) {
	t, ch, err := tm.take(true)
	switch {
	case ch == nil:
		return t, err
	case wait < 0:
		return nil, ErrTooManyThreads
	case wait == 0:
		return tm.acquire(context.Background(), true)
	}
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	return tm.acquire(ctx, true)
}

// Close retires the thread and returns its log slot for reuse. The
// handoff contract is an empty, durably truncated log: Close drains any
// truncation jobs still queued for the slot, verifies the RAWL holds no
// live words, and asserts that no lock the thread's last transaction took
// still carries its id. On any violation the slot is quarantined
// (never recycled) and the error describes the invariant that broke.
// Close must not be called concurrently with Atomic on the same thread;
// closing an already-closed thread is a no-op.
func (t *Thread) Close() error {
	tm := t.tm
	if tm == nil {
		return nil
	}
	if err := t.retire(); err != nil {
		return err
	}
	tm.releaseSlot(t.slot)
	return nil
}

// retire is Close up to the slot's release: on success the thread is dead
// and its slot is the caller's to recycle.
func (t *Thread) retire() error {
	tm := t.tm
	if err := t.closeCheck(); err != nil {
		telReleaseFailures.Inc()
		return err
	}
	t.tm = nil
	t.mem.FlushCacheStats()
	t.mem.ReleaseReadCache()
	tm.slotMu.Lock()
	tm.bound--
	tm.slotMu.Unlock()
	telReleases.Inc()
	telLiveThreads.Add(-1)
	return nil
}

// closeCheck establishes the empty-log handoff invariants.
func (t *Thread) closeCheck() error {
	tm := t.tm
	if t.undoDirty {
		// Batched undo commits truncate lazily; everything still in the
		// log is committed (each batch is terminated by its marker), so
		// the handoff truncation drops only inert records.
		t.log.TruncateAll()
		telemetry.CountPhaseFence(telemetry.PhaseTruncate)
		t.undoDirty = false
	}
	if tm.mgr != nil {
		for t.pendingTrunc.Load() > 0 && !tm.mgr.isHalted() {
			runtime.Gosched()
		}
		if n := t.pendingTrunc.Load(); n > 0 {
			return fmt.Errorf("mtm: thread %d closed with %d truncation jobs pending and the log manager halted", t.id, n)
		}
	}
	if used := t.log.UsedWords(); used != 0 {
		return fmt.Errorf("mtm: thread %d closed with %d live log words", t.id, used)
	}
	// Every exit from a transaction releases the locks in tx.locks, and a
	// thread holds none between transactions, so its last lock set is the
	// only place a leaked lock can be.
	owner := lockedBit | t.id
	for _, le := range t.tx.locks {
		if tm.lockAt(le.idx).Load() == owner {
			return fmt.Errorf("mtm: thread %d closed while still owning lock %d", t.id, le.idx)
		}
	}
	return nil
}

// Memory returns the thread's memory view, for non-transactional
// persistence-primitive work between transactions.
func (t *Thread) Memory() *region.Mem { return t.mem }

// ID returns the thread's 1-based log-slot id, stable for the thread's
// lifetime. Telemetry uses it as the trace thread id.
func (t *Thread) ID() uint64 { return t.id }

// writeEntry is one buffered transactional write.
type writeEntry struct {
	addr pmem.Addr
	val  uint64
}

// lockEntry remembers an acquired lock and its pre-acquisition version so
// aborts can restore it.
type lockEntry struct {
	idx  uint32
	prev uint64
}

// readEntry remembers a lock word observed at read time for commit-time
// validation.
type readEntry struct {
	idx  uint32
	seen uint64
}

// freshBlock is a block the running transaction allocated. fill is the
// address past the highest word stored so far: words from there on have
// never been written and still hold what the block's last owner left.
type freshBlock struct {
	lo, end, fill pmem.Addr
}

// Tx is an executing transaction. A Tx is only valid inside the function
// passed to Atomic.
type Tx struct {
	t  *Thread
	rv uint64 // read snapshot timestamp

	writes  []writeEntry
	windex  intTable // addr -> writes position
	reads   []readEntry
	locks   []lockEntry
	owned   intTable    // lock index+1 -> locks position
	lines   intTable    // scratch: distinct cache lines at commit
	lineBuf []pmem.Addr // scratch: distinct-line output
	recBuf  []uint64    // scratch: redo record assembly

	undoWrites []writeEntry // undo mode: old values, in write order

	// Small-block allocations (BitSet) and frees (BitClear) of this
	// transaction, in program order. The blocks are reserved in pheap's
	// volatile bitmap only; the ops ride the commit record after the write
	// set and reach the persistent bitmaps at write-back.
	bits       []pheap.BitOp
	allocBytes int64   // bytes requested by the allocations in bits
	sbs        []int32 // scratch: superblocks locked while bits drain

	// Large objects keep pheap's own lane log (see Tx.Alloc).
	largeAllocs []pmem.Addr // freed again on abort
	largeFrees  []pmem.Addr // freed after commit

	// Blocks allocated by this transaction, sorted by address, and what was
	// stored into them out of log (see storeFresh).
	fresh      []freshBlock
	freshHit   int         // index in fresh of the last lookup's hit
	freshLines []pmem.Addr // cache lines stored to, in store order; may repeat
	freshLine  pmem.Addr   // line of the latest fresh store
	freshBytes int64

	// writing is set (group-commit mode only) while this transaction is
	// counted in TM.activeWriters — from begin until it enqueues on an
	// epoch, rolls back, or commits read-only. Epoch leaders use the
	// count to decide whether a gathering wait can pay off.
	writing bool
}

// Atomic runs fn as a durable memory transaction — the library equivalent
// of the paper's `atomic { ... }` block. The transaction commits when fn
// returns nil: all its writes become durable atomically. Returning an
// error aborts and rolls back. Conflicts with concurrent transactions
// retry automatically with randomized backoff.
func (t *Thread) Atomic(fn func(tx *Tx) error) error {
	// The latency histograms sample one transaction in N (default 16,
	// Config.LatencySampleRate): two clock reads cost as much as the rest
	// of a read-only commit, and the distribution doesn't need every data
	// point. Counters stay exact. Tracing forces timing so every trace
	// event carries a real latency.
	t.latSeq++
	timed := t.tm.sampleLatency(t.latSeq) || telemetry.TraceEnabled()
	root := telemetry.SpanBegin(telemetry.PhaseTxn, t.id, t.spanParent)
	t.txnSpan = root.ID
	var start time.Time
	if timed {
		start = time.Now()
		if telemetry.TraceEnabled() {
			telemetry.Emit(telemetry.EvTxnBegin, t.id, 0, 0)
		}
	}
	backoff := time.Microsecond
	attemptStart := start
	for {
		err := t.attempt(fn)
		if err == nil {
			if timed {
				lat := time.Since(start).Nanoseconds()
				telCommitLat.Observe(lat)
				if telemetry.TraceEnabled() {
					telemetry.Emit(telemetry.EvTxnCommit, t.id, uint64(lat), uint64(len(t.tx.writes)))
				}
			}
			t.txnSpan = 0
			root.End()
			return nil
		}
		if _, isConflict := err.(conflictErr); !isConflict {
			t.txnSpan = 0
			root.End()
			return err
		}
		t.tm.stats.Aborts.Add(1)
		telAborts.Inc()
		if timed {
			abortLat := time.Since(attemptStart).Nanoseconds()
			telAbortLat.Observe(abortLat)
			if telemetry.TraceEnabled() {
				telemetry.Emit(telemetry.EvTxnAbort, t.id, uint64(abortLat), 0)
			}
		}
		// Randomized exponential backoff to break livelock.
		spinFor(time.Duration(rand.Int64N(int64(backoff) + 1)))
		if backoff < 128*time.Microsecond {
			backoff *= 2
		}
		if timed {
			attemptStart = time.Now()
		}
	}
}

// AtomicBatch runs every fn inside one transaction on this thread: one
// log append, one durability fence (or one group-commit epoch) for the
// whole batch. The batch is atomic as a unit — all fns commit together,
// and an error from any fn aborts them all.
func (t *Thread) AtomicBatch(fns []func(tx *Tx) error) error {
	return t.Atomic(func(tx *Tx) error {
		for _, fn := range fns {
			if err := fn(tx); err != nil {
				return err
			}
		}
		return nil
	})
}

type conflictErr struct{}

func (conflictErr) Error() string { return "mtm: transaction conflict" }

func spinFor(d time.Duration) {
	if d <= 0 {
		runtime.Gosched()
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// attempt runs fn once, translating conflict panics into conflictErr and
// txFailure panics into returned errors.
func (t *Thread) attempt(fn func(tx *Tx) error) (err error) {
	tx := &t.tx
	tx.begin()
	// The body span covers the user closure: read/write-set tracking and
	// encounter-time lock acquisition happen inside it. End is
	// idempotent, so the deferred close only fires on a panic unwind.
	body := telemetry.SpanBegin(telemetry.PhaseBody, t.id, t.txnSpan)
	defer func() {
		body.End()
		if r := recover(); r != nil {
			tx.rollback()
			switch v := r.(type) {
			case conflict:
				err = conflictErr{}
			case txFailure:
				err = v.err
			default:
				panic(r)
			}
		}
	}()
	if err := fn(tx); err != nil {
		tx.rollback()
		return err
	}
	body.End()
	return tx.commit()
}

// endWriting removes the transaction from the active-writer count. Safe
// to call more than once; a no-op outside group-commit mode.
func (tx *Tx) endWriting() {
	if tx.writing {
		tx.writing = false
		tx.t.tm.activeWriters.Add(-1)
	}
}

func (tx *Tx) begin() {
	tx.endWriting() // defensive: a leaked count would stall epoch leaders
	if tx.t.tm.gc != nil {
		// Count this transaction in flight for the whole attempt: epoch
		// leaders gather only while other transactions might still
		// arrive, and a transaction anywhere between begin and its
		// commit enqueue is exactly such an arrival — including during
		// its read phase, which is where a preempted goroutine usually
		// sits on a loaded machine.
		tx.writing = true
		tx.t.tm.activeWriters.Add(1)
	}
	tx.rv = tx.t.tm.clock.Load()
	tx.writes = tx.writes[:0]
	tx.reads = tx.reads[:0]
	tx.locks = tx.locks[:0]
	tx.undoWrites = tx.undoWrites[:0]
	tx.bits = tx.bits[:0]
	tx.allocBytes = 0
	tx.largeAllocs = tx.largeAllocs[:0]
	tx.largeFrees = tx.largeFrees[:0]
	tx.fresh = tx.fresh[:0]
	tx.freshHit = 0
	tx.freshLines = tx.freshLines[:0]
	tx.freshLine = ^pmem.Addr(0)
	tx.freshBytes = 0
	tx.windex.reset()
	tx.owned.reset()
}

func (tx *Tx) abort() {
	panic(conflict{})
}

// rollback undoes the attempt: in undo mode the in-place writes are
// reverted (before locks release, so no other transaction can observe
// them), locks are released without a commit, and blocks allocated inside
// the transaction go back to the heap — small ones by dropping their
// volatile reservation, at no SCM cost. What was stored into them stays
// behind as garbage in free memory.
func (tx *Tx) rollback() {
	t := tx.t
	tx.endWriting()
	if t.tm.cfg.UndoLogging && len(tx.undoWrites) > 0 {
		for i := len(tx.undoWrites) - 1; i >= 0; i-- {
			u := tx.undoWrites[i]
			t.mem.StoreU64(u.addr, u.val)
			t.mem.Flush(u.addr)
		}
		t.mem.Fence()
		t.log.TruncateAll()
	}
	tx.releaseLocksNoCommit()
	if len(tx.bits) > 0 {
		t.tm.cfg.Heap.Aborted(tx.bits)
		tx.bits = tx.bits[:0]
	}
	for _, block := range tx.largeAllocs {
		if err := t.alloc.FreeAddr(block, t.largeSlot); err != nil {
			panic(fmt.Sprintf("mtm: rollback free: %v", err))
		}
	}
	tx.largeAllocs = tx.largeAllocs[:0]
}

// read implements transactional load of one word.
func (tx *Tx) read(a pmem.Addr) uint64 {
	if i, ok := tx.windex.get(uint64(a)); ok {
		return tx.writes[i].val
	}
	li := tx.t.tm.lockIdx(a)
	l := tx.t.tm.lockAt(li)
	w := l.Load()
	if w&lockedBit != 0 {
		if _, mine := tx.owned.get(uint64(li) + 1); mine {
			return tx.t.mem.LoadU64(a)
		}
		tx.abort()
	}
	// Read-through cache: an entry tagged with the version just sampled
	// is provably current (no commit moved the covering lock since the
	// fill), so the device load and the lock recheck are both skipped.
	v, hit := tx.t.mem.CacheLoadU64(a, w)
	if !hit {
		v = tx.t.mem.LoadU64(a)
		if l.Load() != w {
			tx.abort()
		}
		tx.t.mem.CacheFill(a, w, v)
	}
	if w > tx.rv {
		tx.extend()
	}
	tx.reads = append(tx.reads, readEntry{idx: li, seen: w})
	return v
}

// extend revalidates the read set against the current clock, raising the
// snapshot (TinySTM timestamp extension); aborts when a read is stale.
func (tx *Tx) extend() {
	now := tx.t.tm.clock.Load()
	if !tx.validate() {
		tx.abort()
	}
	tx.rv = now
}

func (tx *Tx) validate() bool {
	for _, r := range tx.reads {
		cur := tx.t.tm.lockAt(r.idx).Load()
		if cur == r.seen {
			continue
		}
		if cur&lockedBit != 0 {
			// Locked by us after we read it: valid iff the version
			// we saw is the one we locked over.
			if pos, mine := tx.owned.get(uint64(r.idx) + 1); mine && tx.locks[pos].prev == r.seen {
				continue
			}
		}
		return false
	}
	return true
}

// write implements transactional store of one word: encounter-time lock
// acquisition plus redo buffering (or an immediate undo-logged in-place
// update in the ablation mode) — or, for a word of a block this
// transaction allocated, the store itself.
func (tx *Tx) write(a pmem.Addr, v uint64) {
	if !a.IsPersistent() {
		panic(txFailure{fmt.Errorf("mtm: transactional write to non-persistent address %v", a)})
	}
	li := tx.t.tm.lockIdx(a)
	if _, mine := tx.owned.get(uint64(li) + 1); !mine {
		l := tx.t.tm.lockAt(li)
		w := l.Load()
		if w&lockedBit != 0 {
			tx.abort() // encounter-time conflict
		}
		if w > tx.rv {
			tx.extend()
		}
		if !l.CompareAndSwap(w, lockedBit|tx.t.id) {
			tx.abort()
		}
		tx.owned.put(uint64(li)+1, int32(len(tx.locks)))
		tx.locks = append(tx.locks, lockEntry{idx: li, prev: w})
	}

	if f := tx.freshAt(a); f != nil {
		tx.storeFresh(f, a, v)
		return
	}
	if tx.t.tm.cfg.UndoLogging {
		tx.undoStore(a, v)
		return
	}
	if i, ok := tx.windex.get(uint64(a)); ok {
		tx.writes[i].val = v
		return
	}
	tx.windex.put(uint64(a), int32(len(tx.writes)))
	tx.writes = append(tx.writes, writeEntry{addr: a, val: v})
}

// freshAt returns the block this transaction allocated that contains a, or
// nil.
func (tx *Tx) freshAt(a pmem.Addr) *freshBlock {
	if len(tx.fresh) == 0 {
		return nil
	}
	if f := &tx.fresh[tx.freshHit]; a >= f.lo && a < f.end {
		return f
	}
	i, ok := slices.BinarySearchFunc(tx.fresh, a, func(f freshBlock, a pmem.Addr) int {
		switch {
		case f.end <= a:
			return -1
		case f.lo > a:
			return 1
		}
		return 0
	})
	if !ok {
		return nil
	}
	tx.freshHit = i
	return &tx.fresh[i]
}

// noteFresh records a block just allocated by this transaction.
func (tx *Tx) noteFresh(block pmem.Addr, size int64) {
	i, _ := slices.BinarySearchFunc(tx.fresh, block, func(f freshBlock, a pmem.Addr) int {
		return cmp.Compare(f.lo, a)
	})
	tx.fresh = slices.Insert(tx.fresh, i, freshBlock{lo: block, end: block.Add((size + 7) &^ 7), fill: block})
	tx.freshHit = i
}

// storeFresh stores one word of a block this transaction allocated: a
// cacheable store straight to memory, with no log entry and no write-back.
// Nothing can reach the block until the commit record publishes a pointer
// to it, so it needs no atomicity of its own, only to be durable before
// that record is (flushFresh). An abort or a crash before then leaves
// garbage in a block that is persistently free. The caller holds the
// word's lock, as for any write: a snapshot reader that came through a
// stale pointer to the block's previous life sees the lock or the new
// version, never the bytes changing under it.
func (tx *Tx) storeFresh(f *freshBlock, a pmem.Addr, v uint64) {
	if line := a &^ (scm.LineSize - 1); line == tx.freshLine {
		tx.t.mem.StoreU64InDirtyLine(a, v)
	} else {
		tx.t.mem.StoreU64(a, v)
		tx.freshLine = line
		tx.freshLines = append(tx.freshLines, line)
	}
	if a >= f.fill {
		f.fill = a.Add(8)
	}
	tx.freshBytes += 8
}

// flushFresh makes everything stored into fresh blocks durable: one flush
// per distinct cache line stored to, and no fence, since a flush is
// synchronous. It runs once the transaction can no longer abort on a
// conflict and before any record that could commit it is appended, so a
// durable commit record always finds the payload it points to durable.
func (tx *Tx) flushFresh() {
	if len(tx.freshLines) == 0 {
		return
	}
	tx.lines.reset()
	for _, line := range tx.freshLines {
		if _, seen := tx.lines.get(uint64(line)); seen {
			continue
		}
		tx.lines.put(uint64(line), 0)
		tx.t.mem.Flush(line)
	}
	telFreshLines.Add(uint64(tx.lines.n))
	telFreshBytes.Add(uint64(tx.freshBytes))
}

// undoStore logs the old value and fences before updating memory in
// place — the per-write ordering constraint that makes undo logging
// slower than redo (§5 Discussion).
func (tx *Tx) undoStore(a pmem.Addr, v uint64) {
	t := tx.t
	old := t.mem.LoadU64(a)
	if err := t.appendRecord([]uint64{tagUndoWrite, uint64(a), old}); err != nil {
		panic(txFailure{err})
	}
	t.log.Flush() // the extra fence, per write
	telemetry.CountPhaseFence(telemetry.PhaseLogFence)
	t.mem.StoreU64(a, v)
	tx.undoWrites = append(tx.undoWrites, writeEntry{addr: a, val: old})
}

// commit makes the transaction durable. Redo mode: validate, take a commit
// timestamp, stream the write set and timestamp into the thread log with
// one flush (a single fence), then write the data back and release locks.
func (tx *Tx) commit() error {
	t := tx.t
	tm := t.tm
	if tm.cfg.UndoLogging {
		return tx.commitUndo()
	}
	if tx.pairs() == 0 {
		tx.endWriting()
		tm.stats.ReadOnly.Add(1)
		telReadOnly.Inc()
		tx.releaseLocksNoCommit()
		if tm.mgr != nil && len(tx.largeFrees) > 0 {
			// No record of its own for the frees to follow through the log
			// manager's queue: wait out every older one instead.
			tm.mgr.drain()
		}
		t.freeLarge(tx.largeFrees, t.largeSlot)
		return nil
	}
	validate := telemetry.SpanBegin(telemetry.PhaseValidate, t.id, t.txnSpan)
	ok := tx.validate()
	validate.End()
	if !ok {
		tx.rollback()
		return conflictErr{}
	}
	tx.flushFresh()

	// Undo commit path: selected by CommitMode "undo", or chosen in
	// hybrid mode for write sets small enough that in-place stores beat
	// streaming a redo record — as long as the whole batch plus its
	// marker fits the log at all.
	if tx.useUndoPath() {
		return tx.commitHybrid()
	}

	// Group-commit mode: hand the validated transaction to the epoch
	// coordinator, which logs it, covers it with a shared fence, and
	// releases its locks.
	if tm.gc != nil {
		return tm.gc.commit(tx)
	}

	// The global timestamp counter, "incremented at every transaction
	// completion", captures the total order replayed at recovery.
	ts := tm.clock.Add(1)

	// Write-ahead redo log: [tag, ts, n, (addr,val)...], one record,
	// one flush. This fence is where durability happens.
	appendSp := telemetry.SpanBegin(telemetry.PhaseLogAppend, t.id, t.txnSpan)
	rec := tx.appendPairs(append(tx.recBuf[:0], tagRedo, ts, uint64(tx.pairs())))
	tx.recBuf = rec
	if err := t.appendRecord(rec); err != nil {
		appendSp.End()
		tx.rollback()
		return err
	}
	pos := t.logPos
	appendSp.End()
	fenceSp := telemetry.SpanBegin(telemetry.PhaseLogFence, t.id, t.txnSpan)
	t.log.Flush()
	telemetry.CountPhaseFence(telemetry.PhaseLogFence)
	fenceSp.End()

	// Write the new values back in place.
	wbSp := telemetry.SpanBegin(telemetry.PhaseWriteBack, t.id, t.txnSpan)
	tx.writeBack()
	wbSp.End()

	truncSp := telemetry.SpanBegin(telemetry.PhaseTruncate, t.id, t.txnSpan)
	if tm.mgr != nil {
		// Asynchronous truncation: the log manager flushes the
		// modified lines and truncates later; commit latency excludes
		// that work.
		tm.mgr.submit(tx.truncJob(pos))
	} else {
		// Synchronous truncation: flush every distinct cache line
		// written, write the heap ops through, fence, truncate the whole
		// log.
		if !tm.cfg.WriteThroughWriteback {
			for _, line := range tx.distinctLines(tx.writes) {
				t.mem.Flush(line)
			}
		}
		tx.fenceBits(t.mem.Fence)
		telemetry.CountPhaseFence(telemetry.PhaseTruncate)
		t.log.TruncateAll()
	}
	truncSp.End()

	// Release locks with the commit timestamp as the new version.
	for _, le := range tx.locks {
		t.tm.lockAt(le.idx).Store(ts)
	}

	tx.runDeferredFrees()
	tm.stats.Commits.Add(1)
	telCommits.Inc()
	telRedoCommits.Inc()
	return nil
}

// pairs is the number of (address, value) pairs the commit record
// carries: the write set plus the heap ops.
func (tx *Tx) pairs() int { return len(tx.writes) + len(tx.bits) }

// appendPairs appends the commit record's pairs to rec: the write set,
// then each heap op as (tagged bitmap-word address, mask). Recovery tells
// the two apart by the address's low bits (pheap.IsBitOp).
func (tx *Tx) appendPairs(rec []uint64) []uint64 {
	for _, w := range tx.writes {
		rec = append(rec, uint64(w.addr), w.val)
	}
	for _, op := range tx.bits {
		rec = append(rec, uint64(op.Word), op.Mask)
	}
	return rec
}

// fenceBits issues fence, which must drain t.mem, with the transaction's
// heap ops written through to the persistent bitmaps ahead of it. Like
// writeBack it must run after the fence that made the commit record
// durable.
func (tx *Tx) fenceBits(fence func()) {
	tx.sbs = tx.t.tm.fenceBits(tx.t.mem, tx.bits, tx.sbs, fence)
}

// fenceBits writes heap ops through on mem and issues fence, which must
// drain mem, before any other context may touch the bitmap words again
// (pheap.ApplyBits). sbs is scratch, returned for reuse.
func (tm *TM) fenceBits(mem pmem.Memory, bits []pheap.BitOp, sbs []int32, fence func()) []int32 {
	if len(bits) == 0 {
		fence()
		return sbs
	}
	return tm.cfg.Heap.ApplyBits(mem, bits, sbs, fence)
}

// truncJob hands a committed transaction to the asynchronous log manager,
// which flushes its lines, applies its heap ops and truncates the log
// through pos. The slices escape to the manager, so they are copies.
func (tx *Tx) truncJob(pos rawl.Pos) truncJob {
	job := truncJob{t: tx.t, pos: pos, allocBytes: tx.allocBytes}
	job.lines = append(job.lines, tx.distinctLines(tx.writes)...)
	job.bits = append(job.bits, tx.bits...)
	job.largeFrees = append(job.largeFrees, tx.largeFrees...)
	return job
}

// useUndoPath reports whether this validated writing transaction commits
// through the batched undo path: selected by CommitMode "undo", or
// chosen in hybrid mode for small write sets. What counts is the logged
// write set: bytes stored into fresh blocks are already durable by now and
// cost neither path anything, so a transaction that fills a large new
// value and swings one pointer to it is a small one.
// A write set whose batch record plus commit marker cannot fit even an
// empty log always falls back to redo (which splits across truncations).
func (tx *Tx) useUndoPath() bool {
	t := tx.t
	tm := t.tm
	switch {
	case tm.cfg.UndoLogging || tm.mgr != nil:
		return false
	case tm.mode == modeUndo:
	case tm.mode == modeHybrid && len(tx.writes) <= tm.cfg.HybridUndoMax:
	default:
		return false
	}
	return tx.undoNeedWords() <= t.log.Capacity()-1
}

// undoNeedWords is the log space one batched undo commit consumes: the
// [tag, n, (addr,old)...] batch record plus the [tag, ts] marker.
func (tx *Tx) undoNeedWords() int64 {
	return rawl.RecordWords(int64(2+2*tx.pairs())) + rawl.RecordWords(2)
}

// commitHybrid commits a validated transaction through the batched undo
// path. Unlike the per-write UndoLogging ablation it keeps redo's
// one-ordering-point structure: the whole old-value set is streamed as a
// single record and fenced once before any in-place store, then the new
// values are stored in place (each line flushed, synchronously durable),
// and a commit marker is fenced behind them — the commit point. Two
// fences against sync redo's three (log fence, write-back fence,
// truncation fence).
//
// Truncation is amortized: committed batches are inert at recovery (the
// marker terminates them), so the log truncates only when the next commit
// would not fit, spreading the truncation fence over many commits.
func (tx *Tx) commitHybrid() error {
	t := tx.t
	tm := t.tm
	tx.endWriting() // this commit does not join an epoch

	need := tx.undoNeedWords()
	if need > t.log.FreeWords() {
		// Everything still in the log is a committed batch or marker;
		// dropping them loses nothing.
		truncSp := telemetry.SpanBegin(telemetry.PhaseTruncate, t.id, t.txnSpan)
		t.log.TruncateAll()
		telemetry.CountPhaseFence(telemetry.PhaseTruncate)
		truncSp.End()
	}

	// Old-value batch: one record, one flush — the single ordering point
	// that must precede every in-place store.
	undoSp := telemetry.SpanBegin(telemetry.PhaseUndoLog, t.id, t.txnSpan)
	// A heap op's "old value" is its inverse op: rolling the batch back
	// clears the bit an allocation set and sets the one a free cleared.
	rec := append(tx.recBuf[:0], tagUndoBatch, uint64(tx.pairs()))
	for _, w := range tx.writes {
		rec = append(rec, uint64(w.addr), t.mem.LoadU64(w.addr))
	}
	for _, op := range tx.bits {
		inv := op.Inverse()
		rec = append(rec, uint64(inv.Word), inv.Mask)
	}
	tx.recBuf = rec
	if _, err := t.log.Append(rec); err != nil {
		undoSp.End()
		tx.rollback()
		return fmt.Errorf("mtm: undo batch append: %w", err)
	}
	t.log.Flush()
	telemetry.CountPhaseFence(telemetry.PhaseUndoLog)
	undoSp.End()

	// In-place stores with their line flushes, then the commit marker
	// behind the second fence: the commit point. No abort is possible
	// past the ordering fence — a crash anywhere in here rolls back
	// exactly, by applying the batch record in reverse.
	applySp := telemetry.SpanBegin(telemetry.PhaseUndoApply, t.id, t.txnSpan)
	tx.writeBack()
	if !tm.cfg.WriteThroughWriteback {
		for _, line := range tx.distinctLines(tx.writes) {
			t.mem.Flush(line)
		}
	}
	ts := tm.clock.Add(1)
	if _, err := t.log.Append([]uint64{tagUndoCommit, ts}); err != nil {
		// The precheck reserved space for the marker; failing here would
		// strand an unterminated batch over already-stored data.
		panic(fmt.Sprintf("mtm: undo commit marker append: %v", err))
	}
	tx.fenceBits(t.log.Flush)
	telemetry.CountPhaseFence(telemetry.PhaseUndoApply)
	applySp.End()
	t.undoDirty = true

	// Release locks with the commit timestamp as the new version.
	for _, le := range tx.locks {
		tm.lockAt(le.idx).Store(ts)
	}

	tx.runDeferredFrees()
	tm.stats.Commits.Add(1)
	telCommits.Inc()
	telUndoCommits.Inc()
	return nil
}

// writeBack stores the redo write set in place. Must run strictly after
// the fence that made the log record durable: a crash before write-back
// replays the record; a crash during it leaves only values the record
// reproduces.
func (tx *Tx) writeBack() {
	t := tx.t
	if t.tm.cfg.WriteThroughWriteback {
		for _, w := range tx.writes {
			t.mem.WTStoreU64(w.addr, w.val)
		}
		return
	}
	// Write back with one dirty-line registration per line: writes are
	// in program order, so runs over one cache line are common (bulk
	// value bytes).
	var lastLine pmem.Addr = ^pmem.Addr(0)
	for _, w := range tx.writes {
		if line := w.addr &^ (scm.LineSize - 1); line == lastLine {
			t.mem.StoreU64InDirtyLine(w.addr, w.val)
		} else {
			t.mem.StoreU64(w.addr, w.val)
			lastLine = line
		}
	}
}

// runDeferredFrees releases what the transaction freed, once it is
// durable and its commit record can no longer be replayed (truncated, or
// terminated by its marker): small blocks become allocatable again and
// large blocks are freed through the lane log. Under asynchronous
// truncation the log manager does both, after it has truncated the record:
// whoever reuses a block fills it out of log (storeFresh), so no record
// that stores into the block may still be replayable by then — not this
// one, and not an older one, which the manager's queue order puts ahead of
// it.
func (tx *Tx) runDeferredFrees() {
	t := tx.t
	if t.tm.mgr != nil {
		return
	}
	if len(tx.bits) > 0 {
		telPostCommitErr.Add(uint64(t.tm.cfg.Heap.Committed(tx.bits, tx.allocBytes)))
	}
	t.freeLarge(tx.largeFrees, t.largeSlot)
}

// freeLarge frees a committed transaction's large blocks through the lane
// log, with slot as the destination word. A failing free must not surface
// as a transaction error: callers would report failure for a write that
// actually committed. The block stays allocated (a leak the conservative
// GC can reclaim) and the failure is counted.
func (t *Thread) freeLarge(blocks []pmem.Addr, slot pmem.Addr) {
	for _, block := range blocks {
		if err := t.alloc.FreeAddr(block, slot); err != nil {
			telPostCommitErr.Inc()
		}
	}
}

// commitUndo completes an undo-logged transaction: flush the in-place
// data, fence, then a commit record and a second fence.
func (tx *Tx) commitUndo() error {
	t := tx.t
	tm := t.tm
	if len(tx.undoWrites) == 0 && len(tx.bits) == 0 {
		tm.stats.ReadOnly.Add(1)
		telReadOnly.Inc()
		tx.releaseLocksNoCommit()
		tx.runDeferredFrees()
		return nil
	}
	if !tx.validate() {
		tx.rollback()
		return conflictErr{}
	}
	// Past this point the transaction cannot roll back, so the space for
	// the heap ops' undo records and the commit record is checked first.
	need := int64(len(tx.bits))*rawl.RecordWords(3) + rawl.RecordWords(2)
	if need > t.log.FreeWords() {
		tx.rollback()
		return fmt.Errorf("mtm: transaction overflows undo log (%d words free)", t.log.FreeWords())
	}
	tx.flushFresh()
	// Heap ops are undo-logged like writes — the inverse op is the old
	// value — but behind one fence for all of them: nothing reads a
	// persistent bitmap until recovery, so they can apply together here.
	if len(tx.bits) > 0 {
		for _, op := range tx.bits {
			inv := op.Inverse()
			if _, err := t.log.Append([]uint64{tagUndoWrite, uint64(inv.Word), inv.Mask}); err != nil {
				panic(fmt.Sprintf("mtm: undo bitmap record append: %v", err))
			}
		}
		t.log.Flush()
		telemetry.CountPhaseFence(telemetry.PhaseLogFence)
	}
	for _, line := range tx.distinctLines(tx.undoWrites) {
		t.mem.Flush(line)
	}
	tx.fenceBits(t.mem.Fence)
	telemetry.CountPhaseFence(telemetry.PhaseWriteBack)
	ts := tm.clock.Add(1)
	if _, err := t.log.Append([]uint64{tagUndoCommit, ts}); err != nil {
		panic(fmt.Sprintf("mtm: undo commit record append: %v", err))
	}
	t.log.Flush()
	telemetry.CountPhaseFence(telemetry.PhaseLogFence)
	t.log.TruncateAll()
	for _, le := range tx.locks {
		t.tm.lockAt(le.idx).Store(ts)
	}
	tx.runDeferredFrees()
	tm.stats.Commits.Add(1)
	telCommits.Inc()
	telUndoCommits.Inc()
	return nil
}

// releaseLocksNoCommit releases the locks of a transaction that aborts or
// ends up logging nothing, restoring the old versions — unless it stored
// into fresh blocks. Those words changed in memory with no commit behind
// them, and a snapshot reader still holding a pointer into a recycled
// block would take the restored version as proof that nothing moved; a new
// version sends it back to validate the pointer it came through.
func (tx *Tx) releaseLocksNoCommit() {
	tm := tx.t.tm
	if tx.freshBytes > 0 {
		ts := tm.clock.Add(1)
		for _, le := range tx.locks {
			tm.lockAt(le.idx).Store(ts)
		}
		return
	}
	for i := len(tx.locks) - 1; i >= 0; i-- {
		tm.lockAt(tx.locks[i].idx).Store(tx.locks[i].prev)
	}
}

// appendRecord appends to the thread log, handling a full log: in sync
// mode everything logged is already applied, so truncate and retry; in
// async mode wait for the log manager — the stall the paper describes
// when "the log manager thread is unable to execute".
func (t *Thread) appendRecord(rec []uint64) error {
	for {
		pos, err := t.log.Append(rec)
		if err == nil {
			t.logPos = pos
			return nil
		}
		if err != rawl.ErrLogFull {
			return fmt.Errorf("mtm: log append: %w", err)
		}
		if t.tm.cfg.UndoLogging {
			// Mid-transaction undo records cannot be dropped; the
			// transaction is too large for the log.
			return fmt.Errorf("mtm: transaction overflows undo log (%d words free)", t.log.FreeWords())
		}
		if t.tm.mgr == nil {
			t.log.Flush()
			telemetry.CountPhaseFence(telemetry.PhaseTruncate)
			t.log.TruncateAll()
			continue
		}
		runtime.Gosched()
	}
}

// distinctLines deduplicates the cache lines touched by the write set
// into the transaction's scratch buffer (valid until the next call).
func (tx *Tx) distinctLines(writes []writeEntry) []pmem.Addr {
	tx.lines.reset()
	lines := tx.lineBuf[:0]
	for _, w := range writes {
		line := w.addr &^ (scm.LineSize - 1)
		if _, ok := tx.lines.get(uint64(line)); !ok {
			tx.lines.put(uint64(line), 0)
			lines = append(lines, line)
		}
	}
	tx.lineBuf = lines
	return lines
}

// Public transactional accessors.

// LoadU64 transactionally reads the word at a.
func (tx *Tx) LoadU64(a pmem.Addr) uint64 { return tx.read(a) }

// ReadSetLen reports how many word loads the attempt has recorded for
// validation — what a data structure's read path costs the transaction
// (tests and assertions).
func (tx *Tx) ReadSetLen() int { return len(tx.reads) }

// StoreU64 transactionally writes the word at a.
func (tx *Tx) StoreU64(a pmem.Addr, v uint64) { tx.write(a, v) }

// Load transactionally reads len(buf) bytes at a.
func (tx *Tx) Load(buf []byte, a pmem.Addr) {
	n := int64(len(buf))
	i := int64(0)
	for i < n {
		w := tx.read((a.Add(i)) &^ 7)
		shift := uint(uint64(a.Add(i)) & 7)
		for ; shift < 8 && i < n; shift++ {
			buf[i] = byte(w >> (shift * 8))
			i++
		}
	}
}

// Store transactionally writes buf at a.
func (tx *Tx) Store(a pmem.Addr, buf []byte) {
	n := int64(len(buf))
	i := int64(0)
	for i < n {
		wordAddr := (a.Add(i)) &^ 7
		shift := uint(uint64(a.Add(i)) & 7)
		if shift == 0 && n-i >= 8 {
			v := uint64(buf[i]) | uint64(buf[i+1])<<8 | uint64(buf[i+2])<<16 |
				uint64(buf[i+3])<<24 | uint64(buf[i+4])<<32 | uint64(buf[i+5])<<40 |
				uint64(buf[i+6])<<48 | uint64(buf[i+7])<<56
			tx.write(wordAddr, v)
			i += 8
			continue
		}
		// A partial word keeps its other bytes — except in a fresh block
		// beyond what this transaction has filled, where they are the
		// previous owner's: that word is built from zero.
		var w uint64
		if f := tx.freshAt(wordAddr); f == nil || wordAddr < f.fill {
			w = tx.read(wordAddr)
		}
		for ; shift < 8 && i < n; shift++ {
			w &^= 0xff << (shift * 8)
			w |= uint64(buf[i]) << (shift * 8)
			i++
		}
		tx.write(wordAddr, w)
	}
}

// PMalloc allocates persistent memory inside the transaction (Figure 3 of
// the paper shows pmalloc inside an atomic block). The write of the block
// address through ptr is transactional; the allocation itself is undone if
// the transaction aborts.
func (tx *Tx) PMalloc(size int64, ptr pmem.Addr) (pmem.Addr, error) {
	block, err := tx.Alloc(size)
	if err != nil {
		return pmem.Nil, err
	}
	tx.write(ptr, uint64(block))
	return block, nil
}

// Alloc allocates persistent memory inside the transaction without
// writing any user pointer; the caller links the block into its data
// structure with transactional stores. A block of at most pheap.MaxSmall
// bytes is only reserved here: the allocation becomes persistent with the
// transaction's commit record, so an abort or a crash before commit costs
// nothing and leaks nothing. A larger one runs pheap's lane log at once,
// with the thread's persistent pointer word as its destination, and is
// freed again if the transaction aborts (a crash before commit leaks it to
// the garbage collector). Either way the block is this transaction's own
// until it commits, and what it stores there bypasses the log (storeFresh).
func (tx *Tx) Alloc(size int64) (pmem.Addr, error) {
	t := tx.t
	if t.alloc == nil {
		return pmem.Nil, errors.New("mtm: no heap attached")
	}
	if size > pheap.MaxSmall {
		block, err := t.alloc.PMalloc(size, t.largeSlot)
		if err != nil {
			return pmem.Nil, err
		}
		tx.largeAllocs = append(tx.largeAllocs, block)
		tx.noteFresh(block, size)
		return block, nil
	}
	block, op, err := t.alloc.Reserve(size)
	if err != nil {
		return pmem.Nil, err
	}
	tx.bits = append(tx.bits, op)
	tx.allocBytes += size
	tx.noteFresh(block, size)
	return block, nil
}

// FreeBlock frees the block at addr when the transaction commits; an
// abort leaves the block intact. The caller is responsible for
// transactionally unlinking every pointer to it. Freeing a small block
// that is not allocated fails here; anything outside the superblock area
// is handed to the heap after commit, where a failure is only counted.
func (tx *Tx) FreeBlock(addr pmem.Addr) error {
	t := tx.t
	if t.alloc == nil {
		return errors.New("mtm: no heap attached")
	}
	if addr == pmem.Nil {
		return errors.New("mtm: free of nil block")
	}
	heap := t.tm.cfg.Heap
	if !heap.IsSmall(addr) {
		tx.largeFrees = append(tx.largeFrees, addr)
		return nil
	}
	op, err := heap.FreeOp(addr)
	if err != nil {
		return err
	}
	tx.bits = append(tx.bits, op)
	return nil
}

// PFree transactionally frees the block pointed to by the persistent
// pointer at ptr. The pointer is nullified transactionally; the block
// itself is released only after the transaction commits, so an abort
// leaves it intact.
func (tx *Tx) PFree(ptr pmem.Addr) error {
	if tx.t.alloc == nil {
		return errors.New("mtm: no heap attached")
	}
	block := pmem.Addr(tx.read(ptr))
	if block == pmem.Nil {
		return errors.New("mtm: pfree of nil pointer")
	}
	tx.write(ptr, 0)
	return tx.FreeBlock(block)
}
