package mtm

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/pheap"
	"repro/internal/rawl"
	"repro/internal/scm"
	"repro/internal/telemetry"
)

// Group-commit metrics: epochs, their population, and the fences their
// leaders issue on behalf of whole epochs. fences/members is the fence
// amortization the coordinator exists to buy.
var (
	telGCEpochs = telemetry.NewCounter("mtm_group_commit_epochs_total",
		"group-commit epochs flushed")
	telGCMembers = telemetry.NewCounter("mtm_group_commit_members_total",
		"transactions made durable through group-commit epochs")
	telGCFences = telemetry.NewCounter("mtm_group_commit_fences_total",
		"device fences issued by epoch leaders covering all members")
	telGCSize = telemetry.NewHistogram("mtm_group_commit_epoch_size",
		"members per flushed group-commit epoch")
	telGCWait = telemetry.NewHistogram("mtm_group_commit_wait_ns",
		"member latency from epoch enqueue to completion, ns (sampled 1-in-mtm_latency_sample_rate)")
)

// pendingCommit is one validated transaction enqueued on a commit epoch.
// It is embedded in Thread so enqueueing allocates nothing.
type pendingCommit struct {
	tx  *Tx
	ts  uint64 // commit timestamp, assigned in enqueue order
	err error  // set by the leader when the member could not be logged
}

// epoch is one group of transactions made durable by a single covering
// fence. Flushed epochs go back on the committer's free list, so an epoch
// and its members slice are reused rather than allocated per group.
type epoch struct {
	id      uint64
	members []*pendingCommit // members[0] is the leader
	sealed  bool             // no further members may join
}

// groupCommitter coalesces the durability fences of concurrent
// transactions. A committing transaction publishes its write set, takes a
// commit timestamp, and enqueues on the current epoch; the first member
// becomes the leader and, after the previous epoch has flushed and an
// optional gathering window passes, streams every member's redo record
// into that member's own thread log and issues one FenceGroup covering
// them all. Members park on their thread's wake channel, which transfers
// ownership of their memory views to the leader for the flush; the
// leader wakes each one after the fence and the lock release.
type groupCommitter struct {
	tm *TM

	mu      sync.Mutex
	cur     *epoch
	nextID  uint64
	flushed uint64    // id of the newest flushed epoch; epoch flushed+1 leads next
	turn    sync.Cond // on mu: broadcast when flushed advances
	free    []*epoch  // flushed epochs awaiting reuse

	// The gathering window. Only the leader whose turn it is gathers, so
	// one timer and one seal signal serve every epoch. seal is sent,
	// without blocking and under mu, when the batch cap seals the open
	// epoch.
	timer *time.Timer
	seal  chan struct{}

	// flushEpoch scratch, reused across epochs. Epochs flush strictly
	// serially (each leader waits for its turn), so a single set is safe.
	live  []*pendingCommit
	peers []*scm.Context
	bits  []pheap.BitOp // every live member's heap ops
	sbs   []int32       // superblocks locked while bits drain
}

func newGroupCommitter(tm *TM) *groupCommitter {
	gc := &groupCommitter{tm: tm, timer: time.NewTimer(time.Hour), seal: make(chan struct{}, 1)}
	gc.timer.Stop()
	gc.turn.L = &gc.mu
	return gc
}

// open starts the next epoch, reusing a flushed one when there is one.
// Called with gc.mu held.
func (gc *groupCommitter) open() *epoch {
	var e *epoch
	if n := len(gc.free); n > 0 {
		e, gc.free[n-1] = gc.free[n-1], nil
		gc.free = gc.free[:n-1]
	} else {
		e = new(epoch)
	}
	gc.nextID++
	e.id, e.sealed = gc.nextID, false
	gc.cur = e
	return e
}

// commit makes tx durable through a group-commit epoch. Called with the
// transaction validated, its locks held and what it stored into fresh
// blocks flushed (a member flushes its own lines before it parks; the
// leader streams records only); on return the transaction is durable (or
// pc.err-failed and rolled back by the caller via finish).
func (gc *groupCommitter) commit(tx *Tx) error {
	t := tx.t
	// This transaction has arrived: stop counting it toward the leader's
	// "more members are coming" heuristic.
	tx.endWriting()
	timed := t.tm.sampleLatency(t.latSeq)
	var start time.Time
	if timed {
		start = time.Now()
	}
	// The enqueue span covers everything from joining the epoch to the
	// wake-up: for a member that is the wait, for the leader it encloses
	// the lead span.
	enq := telemetry.SpanBegin(telemetry.PhaseGCEnqueue, t.id, t.txnSpan)
	if t.wake == nil {
		t.wake = make(chan struct{}, 1)
	}

	gc.mu.Lock()
	e := gc.cur
	if e == nil {
		e = gc.open()
	}
	pc := &t.pending
	pc.tx = tx
	// The commit timestamp is taken in enqueue order under gc.mu.
	// Conflicting transactions serialize through lock release (which
	// happens only after an epoch's fence), so timestamp order agrees
	// with the serialization order recovery must replay.
	pc.ts = gc.tm.clock.Add(1)
	pc.err = nil
	e.members = append(e.members, pc)
	leader := len(e.members) == 1
	if len(e.members) >= gc.tm.cfg.GroupCommitBatch && !e.sealed {
		e.sealed = true
		gc.cur = nil
		select {
		case gc.seal <- struct{}{}:
		default:
		}
	}
	gc.mu.Unlock()

	if leader {
		lead := telemetry.SpanBegin(telemetry.PhaseGCLead, t.id, t.txnSpan)
		gc.lead(e)
		lead.End()
	} else {
		<-t.wake
	}
	enq.End()
	if timed {
		telGCWait.Observe(time.Since(start).Nanoseconds())
	}
	return gc.finish(pc)
}

// lead runs the epoch leader protocol: wait for the previous epoch to
// flush (e stays open meanwhile, which batches naturally under load), let
// an optional gathering window pass while other writers are still
// producing, seal the epoch, flush it, wake the members and recycle the
// epoch.
func (gc *groupCommitter) lead(e *epoch) {
	gc.mu.Lock()
	for gc.flushed+1 != e.id {
		gc.turn.Wait()
	}
	gc.mu.Unlock()
	if w := gc.tm.cfg.GroupCommitWait; w > 0 {
		// Yield once before sealing: on a saturated scheduler the run
		// queue holds the other committers, and letting them run walks
		// them straight onto this epoch (a joining member parks, handing
		// the processor back). An idle system has an empty run queue and
		// pays essentially nothing, keeping solitary commits at
		// single-operation latency.
		runtime.Gosched()
		// Gathering window: worth a timed wait only when transactions
		// are still in flight and might yet arrive.
		if gc.tm.activeWriters.Load() > 0 {
			gc.gather(e, w)
		}
	}
	gc.mu.Lock()
	if gc.cur == e {
		gc.cur = nil
	}
	e.sealed = true
	gc.mu.Unlock()

	gc.flushEpoch(e.id, e.members)

	gc.mu.Lock()
	gc.flushed = e.id
	gc.turn.Broadcast()
	for _, pc := range e.members[1:] {
		pc.tx.t.wake <- struct{}{} // never blocks: one wake per park
	}
	clear(e.members)
	e.members = e.members[:0]
	gc.free = append(gc.free, e)
	gc.mu.Unlock()
}

// gather holds e open for up to w, or until the batch cap seals it.
func (gc *groupCommitter) gather(e *epoch, w time.Duration) {
	gc.mu.Lock()
	// A buffered seal signal belongs to an epoch that filled before its
	// leader's turn came: drop it. From here on a signal can only mean e
	// filled, since e stays the open epoch until it seals.
	select {
	case <-gc.seal:
	default:
	}
	sealed := e.sealed
	gc.mu.Unlock()
	if sealed {
		return
	}
	// A tick left over from an earlier window would end this one at once.
	select {
	case <-gc.timer.C:
	default:
	}
	gc.timer.Reset(w)
	select {
	case <-gc.seal:
		if !gc.timer.Stop() {
			select {
			case <-gc.timer.C:
			default:
			}
		}
	case <-gc.timer.C:
	}
}

// flushEpoch makes every member durable under one covering fence and
// releases their locks. Crash atomicity: every record carries the epoch
// id and the member count, and recovery replays an epoch only when all
// its records are present — so a crash before the fence rolls back every
// member, and the fence makes all of them durable at once.
func (gc *groupCommitter) flushEpoch(id uint64, members []*pendingCommit) {
	tm := gc.tm

	// Exclude oversized members up front: once any record streams with
	// the epoch's member count, a later append failure would poison the
	// whole epoch at recovery.
	live := gc.live[:0]
	for _, pc := range members {
		if need := int64(5 + 2*pc.tx.pairs()); need > pc.tx.t.log.MaxRecordWords() {
			pc.err = fmt.Errorf("mtm: transaction of %d writes overflows the thread log (%d payload words, max %d)",
				pc.tx.pairs(), need, pc.tx.t.log.MaxRecordWords())
			continue
		}
		live = append(live, pc)
	}
	gc.live = live
	if len(live) == 0 {
		return
	}
	n := uint64(len(live))
	flushSp := telemetry.SpanBegin(telemetry.PhaseGCFlush, live[0].tx.t.id, live[0].tx.t.txnSpan)
	defer flushSp.End()

	// Stream each member's redo record into its own thread log. Members
	// are parked on their wake channels, so the leader temporarily owns
	// their memory views; the enqueue under gc.mu and the wake-up order
	// the handoff both ways.
	for _, pc := range live {
		tx := pc.tx
		tx.recBuf = tx.appendPairs(append(tx.recBuf[:0], tagRedoGroup, pc.ts, id, n, uint64(tx.pairs())))
		tx.t.appendGroupRecord(tx.recBuf)
	}

	// One fence covers every member's appended records: the epoch's
	// durability point.
	leaderMem := live[0].tx.t.mem
	peers := gc.peers[:0]
	for _, pc := range live[1:] {
		peers = append(peers, pc.tx.t.mem.Context())
	}
	gc.peers = peers
	leaderMem.Context().FenceGroup(peers...)
	telGCFences.Inc()
	telemetry.CountPhaseFence(telemetry.PhaseLogFence)

	// Write the new values back in place — strictly after the fence, so
	// a crash can never persist in-place data whose log record is lost.
	for _, pc := range live {
		pc.tx.writeBack()
	}

	if tm.mgr != nil {
		// Asynchronous truncation: the epoch's jobs travel as one batch
		// that the manager flushes under one fence and truncates
		// together, so a crash cannot observe part of an epoch truncated
		// while another member's in-place data is still volatile.
		batch := make([]truncJob, 0, len(live))
		for _, pc := range live {
			batch = append(batch, pc.tx.truncJob(pc.tx.t.logPos))
		}
		tm.mgr.submitBatch(batch)
	} else {
		// Synchronous truncation: flush every member's written lines and
		// write every member's heap ops through, fence once for the whole
		// epoch, then truncate every member log with deferred head updates
		// under one trailing fence (freed log space must not be reused
		// before the new heads are durable).
		bits := gc.bits[:0]
		for _, pc := range live {
			if !tm.cfg.WriteThroughWriteback {
				for _, line := range pc.tx.distinctLines(pc.tx.writes) {
					pc.tx.t.mem.Flush(line)
				}
			}
			bits = append(bits, pc.tx.bits...)
		}
		gc.bits = bits
		gc.sbs = tm.fenceBits(leaderMem, bits, gc.sbs, func() { leaderMem.Context().FenceGroup(peers...) })
		telGCFences.Inc()
		telemetry.CountPhaseFence(telemetry.PhaseTruncate)
		for _, pc := range live {
			pc.tx.t.log.TruncateAllDeferred()
		}
		leaderMem.Context().FenceGroup(peers...)
		telGCFences.Inc()
		telemetry.CountPhaseFence(telemetry.PhaseTruncate)
	}

	// Release every member's locks with its commit timestamp. From here
	// conflicting transactions can proceed; their timestamps will be
	// higher than every member's.
	for _, pc := range live {
		for _, le := range pc.tx.locks {
			tm.lockAt(le.idx).Store(pc.ts)
		}
	}

	telGCEpochs.Inc()
	telGCMembers.Add(n)
	telGCSize.Observe(int64(n))
}

// finish completes a member's commit on its own goroutine after its
// epoch flushed: post-commit cleanup on success, full rollback
// when the leader could not log it.
func (gc *groupCommitter) finish(pc *pendingCommit) error {
	tx := pc.tx
	if pc.err != nil {
		tx.rollback()
		return pc.err
	}
	tx.runDeferredFrees()
	gc.tm.stats.Commits.Add(1)
	telCommits.Inc()
	telRedoCommits.Inc()
	return nil
}

// appendGroupRecord appends a size-prechecked epoch record, riding out
// transient fullness (asynchronous truncation lag). Unlike appendRecord
// it cannot fail: capacity overflow was excluded by flushEpoch's
// pre-check, so the record always fits once the consumer catches up.
func (t *Thread) appendGroupRecord(rec []uint64) {
	for {
		pos, err := t.log.Append(rec)
		if err == nil {
			t.logPos = pos
			return
		}
		if err != rawl.ErrLogFull {
			panic(fmt.Sprintf("mtm: group append: %v", err))
		}
		if t.tm.mgr == nil {
			// Synchronous group mode truncates every log per epoch, so
			// the log is empty here and a prechecked record fits; this
			// branch is defensive.
			t.log.Flush()
			t.log.TruncateAll()
			continue
		}
		runtime.Gosched()
	}
}
