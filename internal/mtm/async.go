package mtm

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/pheap"
	"repro/internal/pmem"
	"repro/internal/rawl"
	"repro/internal/telemetry"
)

// truncJob asks the log manager to make one committed transaction's
// in-place data and heap ops durable and then truncate its log through pos.
type truncJob struct {
	t          *Thread
	pos        rawl.Pos
	lines      []pmem.Addr
	bits       []pheap.BitOp
	allocBytes int64
	largeFrees []pmem.Addr
}

// logManager is the separate thread of §5: "A separate log manager thread
// consumes the log and forces values out to memory before truncating the
// log." Moving the flushes and the truncation fence off the commit path is
// the asynchronous-truncation optimization measured in Figure 6.
type logManager struct {
	tm      *TM
	jobs    chan []truncJob
	quit    chan struct{}
	halted  atomic.Bool
	pending atomic.Int64
	wg      sync.WaitGroup

	// process scratch (the manager goroutine only).
	bits []pheap.BitOp
	sbs  []int32
}

func newLogManager(tm *TM) *logManager {
	m := &logManager{tm: tm, jobs: make(chan []truncJob, 4096), quit: make(chan struct{})}
	m.wg.Add(1)
	go m.run()
	return m
}

func (m *logManager) run() {
	defer m.wg.Done()
	mem := m.tm.rt.NewMemory()
	for {
		select {
		case <-m.quit:
			return
		case batch, ok := <-m.jobs:
			if !ok {
				return
			}
			// Opportunistic coalescing: fold whatever else is already
			// queued into this round, amortizing the two fences below.
			// Batches are appended whole, never split — a group-commit
			// epoch's jobs must truncate under one fence pair, or a
			// crash could observe part of an epoch truncated while
			// another member's in-place data is still volatile.
			for len(batch) < 256 {
				select {
				case more, ok := <-m.jobs:
					if !ok {
						m.process(mem, batch)
						return
					}
					batch = append(batch, more...)
					continue
				default:
				}
				break
			}
			m.process(mem, batch)
		}
	}
}

// process makes every job's in-place data and heap ops durable under one
// fence, then truncates all their logs with deferred head updates covered
// by a single trailing fence (freed log space must not be reused before
// the new heads are durable). Only then do the blocks the jobs freed
// become allocatable: their records can no longer replay, and neither can
// any older record that stores into one of them — a transaction that frees
// a block committed after every transaction it conflicted with had queued
// its job, and jobs are processed in queue order.
func (m *logManager) process(mem pmem.Memory, batch []truncJob) {
	sp := telemetry.SpanBegin(telemetry.PhaseAsyncTrunc, 0, 0)
	defer sp.End()
	m.bits = m.bits[:0]
	for _, job := range batch {
		for _, line := range job.lines {
			mem.Flush(line)
		}
		m.bits = append(m.bits, job.bits...)
	}
	m.sbs = m.tm.fenceBits(mem, m.bits, m.sbs, mem.Fence)
	telemetry.CountPhaseFence(telemetry.PhaseAsyncTrunc)
	// The data is durable; the redo records up to each pos are no
	// longer needed.
	for _, job := range batch {
		job.t.log.TruncateToDeferred(mem, job.pos)
	}
	mem.Fence()
	telemetry.CountPhaseFence(telemetry.PhaseAsyncTrunc)
	for _, job := range batch {
		if len(job.bits) > 0 {
			telPostCommitErr.Add(uint64(m.tm.cfg.Heap.Committed(job.bits, job.allocBytes)))
		}
		job.t.freeLarge(job.largeFrees, job.t.largeSlot.Add(8))
		job.t.pendingTrunc.Add(-1)
		m.pending.Add(-1)
	}
}

// halt stops the manager goroutine without draining queued jobs, leaving
// committed-but-unflushed transactions in the logs.
func (m *logManager) halt() {
	if !m.halted.CompareAndSwap(false, true) {
		return
	}
	close(m.quit)
	m.wg.Wait()
}

// isHalted reports whether halt stopped the manager; Thread.Close uses it
// to stop waiting for truncation jobs that will never run.
func (m *logManager) isHalted() bool { return m.halted.Load() }

// submit enqueues a job; it blocks when the manager is far behind, which
// is the backpressure the paper notes: "program threads may stall until
// there is free log space."
func (m *logManager) submit(job truncJob) {
	m.submitBatch([]truncJob{job})
}

// submitBatch enqueues a group of jobs that must truncate together under
// one fence pair (a group-commit epoch). The batch travels as a single
// channel element, so the manager can never split it.
func (m *logManager) submitBatch(batch []truncJob) {
	for _, job := range batch {
		job.t.pendingTrunc.Add(1)
	}
	m.pending.Add(int64(len(batch)))
	m.jobs <- batch
}

// drain waits until every submitted job has completed.
func (m *logManager) drain() {
	for !m.halted.Load() && m.pending.Load() > 0 {
		runtime.Gosched()
	}
}

func (m *logManager) stop() {
	if m.halted.Load() {
		return
	}
	m.drain()
	close(m.jobs)
	m.wg.Wait()
}
