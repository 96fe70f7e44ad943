package mtm

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/pheap"
)

// TestThreadCloseRecyclesSlot exercises the leasing layer's core promise:
// closed threads return their slots, so cumulative thread count is
// unbounded even with a tiny Slots budget, and data written by earlier
// incarnations of a slot stays intact.
func TestThreadCloseRecyclesSlot(t *testing.T) {
	e := newEnv(t, Config{Slots: 2, LogWords: 256})
	for i := 0; i < 50; i++ {
		th, err := e.tm.NewThread()
		if err != nil {
			t.Fatalf("thread %d: %v", i, err)
		}
		if err := th.Atomic(func(tx *Tx) error {
			tx.StoreU64(e.data.Add(int64(i%64)*8), uint64(i+1))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := th.Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	// The last 50 writes cycled through 64 words; spot-check the tail.
	if got := e.mem.LoadU64(e.data.Add(49 * 8)); got != 50 {
		t.Fatalf("word 49 = %d, want 50", got)
	}
	if got := e.tm.LiveThreads(); got != 0 {
		t.Fatalf("live threads = %d, want 0", got)
	}
	if got := e.tm.FreeSlots(); got != 2 {
		t.Fatalf("free slots = %d, want 2", got)
	}
}

// TestCloseReusePrefersRecycledSlots checks that NewThread draws from the
// free list before minting never-used slots: with a large Slots budget,
// sequential create/close churn stays on one physical slot.
func TestCloseReusePrefersRecycledSlots(t *testing.T) {
	e := newEnv(t, Config{Slots: 8})
	th, err := e.tm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	first := th.ID()
	if err := th.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		th, err := e.tm.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		if th.ID() != first {
			t.Fatalf("churn %d bound slot id %d, want recycled %d", i, th.ID(), first)
		}
		if err := th.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseDoubleCloseIsNoop documents the idempotence contract.
func TestCloseDoubleCloseIsNoop(t *testing.T) {
	e := newEnv(t, Config{Slots: 1})
	th, err := e.tm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Close(); err != nil {
		t.Fatal(err)
	}
	if err := th.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if got := e.tm.FreeSlots(); got != 1 {
		t.Fatalf("free slots after double close = %d, want 1", got)
	}
}

// TestLeaseWaitsForRelease leases the only slot, then verifies a
// bounded-wait lease blocks until Close frees it — the queue-not-error
// behavior servers rely on for bursts.
func TestLeaseWaitsForRelease(t *testing.T) {
	e := newEnv(t, Config{Slots: 1})
	th, err := e.tm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var leaseErr error
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		th2, err := e.tm.Lease(ctx)
		if err != nil {
			leaseErr = err
			return
		}
		leaseErr = th2.Close()
	}()
	time.Sleep(10 * time.Millisecond)
	if err := th.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if leaseErr != nil {
		t.Fatalf("waiting lease: %v", leaseErr)
	}
}

// TestLeaseTimesOut verifies the bounded wait actually bounds, for an
// explicit lease and for a TM.Atomic that finds every slot leased.
func TestLeaseTimesOut(t *testing.T) {
	e := newEnv(t, Config{Slots: 1})
	th, err := e.tm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := e.tm.Lease(ctx); !errors.Is(err, ErrLeaseTimeout) {
		t.Fatalf("lease on full TM: %v, want ErrLeaseTimeout", err)
	}
	nop := func(*Tx) error { return nil }
	if err := e.tm.AtomicSpanned(0, 20*time.Millisecond, nop); !errors.Is(err, ErrLeaseTimeout) {
		t.Fatalf("Atomic on full TM: %v, want ErrLeaseTimeout", err)
	}
	// A negative wait fails at once, like NewThread.
	if err := e.tm.AtomicSpanned(0, -1, nop); err != ErrTooManyThreads {
		t.Fatalf("no-wait Atomic on full TM: %v, want ErrTooManyThreads", err)
	}
}

// TestAtomicReusesParkedThread pins what TM.Atomic costs beyond the
// transaction: the first call binds a slot, every later one takes the
// parked thread back with no lease, no allocation and no device event.
func TestAtomicReusesParkedThread(t *testing.T) {
	e := newEnv(t, Config{Slots: 2})
	n := uint64(0)
	store := func(tx *Tx) error {
		n++
		tx.StoreU64(e.data, n)
		return nil
	}
	if err := e.tm.Atomic(store); err != nil {
		t.Fatal(err)
	}
	if live, free := e.tm.LiveThreads(), e.tm.FreeSlots(); live != 0 || free != 2 {
		t.Fatalf("with one thread parked: live = %d, free slots = %d, want 0 and 2", live, free)
	}
	leases := telLeases.Value()
	if allocs := testing.AllocsPerRun(100, func() {
		if err := e.tm.Atomic(store); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("TM.Atomic on a parked thread allocates %v times per call, want 0", allocs)
	}
	if got := telLeases.Value() - leases; got != 0 {
		t.Errorf("%d slot bindings while a parked thread was available, want 0", got)
	}
	if got := e.mem.LoadU64(e.data); got != n {
		t.Fatalf("word = %d, want %d", got, n)
	}
	// Empty transactions touch the device not at all: the checkout and the
	// park are volatile.
	before := e.dev.Snapshot()
	for i := 0; i < 10; i++ {
		if err := e.tm.Atomic(func(*Tx) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if after := e.dev.Snapshot(); after != before {
		t.Errorf("empty TM.Atomic calls moved the device counters: %+v -> %+v", before, after)
	}
	e.tm.Close()
	if free := e.tm.FreeSlots(); free != 2 {
		t.Fatalf("free slots after TM.Close = %d, want 2", free)
	}
}

// TestLeaseTakesParkedSlot: threads kept for TM.Atomic never starve an
// explicit lease. With the only slot parked — holding an amortised undo
// batch, so the handoff has a log to truncate — NewThread and Lease succeed
// at once, and TM.Atomic gets the slot back when they close.
func TestLeaseTakesParkedSlot(t *testing.T) {
	e := newEnv(t, Config{Slots: 1, CommitMode: "undo"})
	store := func(tx *Tx) error {
		tx.StoreU64(e.data, 7)
		return nil
	}
	if err := e.tm.Atomic(store); err != nil {
		t.Fatal(err)
	}
	th, err := e.tm.NewThread()
	if err != nil {
		t.Fatalf("NewThread with the only slot parked: %v", err)
	}
	if live := e.tm.LiveThreads(); live != 1 {
		t.Fatalf("live threads = %d, want 1", live)
	}
	if err := th.Atomic(store); err != nil {
		t.Fatal(err)
	}
	if err := th.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.tm.Atomic(store); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a lease that need not wait never consults its context
	th, err = e.tm.Lease(ctx)
	if err != nil {
		t.Fatalf("Lease with the only slot parked: %v", err)
	}
	if err := th.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAtomicWaitsForBusySlot runs more concurrent TM.Atomic callers than
// slots: they queue for parked threads instead of failing, and every
// increment lands.
func TestAtomicWaitsForBusySlot(t *testing.T) {
	e := newEnv(t, Config{Slots: 2})
	const goroutines, each = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := e.tm.Atomic(func(tx *Tx) error {
					tx.StoreU64(e.data, tx.LoadU64(e.data)+1)
					return nil
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := e.mem.LoadU64(e.data); got != goroutines*each {
		t.Fatalf("counter = %d, want %d", got, goroutines*each)
	}
	if live := e.tm.LiveThreads(); live != 0 {
		t.Fatalf("live threads after the burst = %d, want 0", live)
	}
}

// TestAtomicPanicDoesNotPark: a thread is parked only when its transaction
// returned. A panicking fn leaves nothing parked; the thread is closed, so
// its slot comes back when the close check passes and stays quarantined
// when it does not (here: a truncation job that the halted log manager
// will never run).
func TestAtomicPanicDoesNotPark(t *testing.T) {
	for _, quarantine := range []bool{false, true} {
		e := newEnv(t, Config{Slots: 1, AsyncTruncation: true})
		defer e.tm.Close()
		if quarantine {
			e.tm.StopTruncation()
		}
		if err := e.tm.Atomic(func(tx *Tx) error {
			tx.StoreU64(e.data, 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("recovered %v, want boom", r)
				}
			}()
			_ = e.tm.Atomic(func(tx *Tx) error {
				tx.StoreU64(e.data, 99)
				panic("boom")
			})
		}()
		if parked := len(e.tm.parked); parked != 0 {
			t.Fatalf("quarantine=%v: %d threads parked after a panic, want 0", quarantine, parked)
		}
		wantLive, wantFree := 0, 1 // closed, slot recycled
		if quarantine {
			wantLive, wantFree = 1, 0 // close check failed, slot never reused
		}
		if live, free := e.tm.LiveThreads(), e.tm.FreeSlots(); live != wantLive || free != wantFree {
			t.Fatalf("quarantine=%v: live = %d, free slots = %d, want %d and %d", quarantine, live, free, wantLive, wantFree)
		}
		if got := e.mem.LoadU64(e.data); got == 99 {
			t.Fatal("the panicked transaction's store reached memory")
		}
		err := e.tm.AtomicSpanned(0, -1, func(*Tx) error { return nil })
		if quarantine && err != ErrTooManyThreads {
			t.Fatalf("Atomic on a TM whose only slot is quarantined: %v, want ErrTooManyThreads", err)
		}
		if !quarantine && err != nil {
			t.Fatalf("Atomic after a panic: %v", err)
		}
	}
}

// TestCloseQuarantinesSlotOnHeldLock plants this thread's id in a lock
// word (white box: simulates a lock leak) and verifies Close refuses to
// recycle the slot — the assertion the issue's handoff contract demands.
func TestCloseQuarantinesSlotOnHeldLock(t *testing.T) {
	e := newEnv(t, Config{Slots: 1})
	th, err := e.tm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	// A leaked lock is one a transaction took and no exit path released,
	// so it sits in the thread's last lock set: commit, then re-plant it.
	if err := th.Atomic(func(tx *Tx) error {
		tx.StoreU64(e.data, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	leaked := e.tm.lockAt(e.tm.lockIdx(e.data))
	version := leaked.Load()
	leaked.Store(lockedBit | th.id)
	if err := th.Close(); err == nil {
		t.Fatal("close with a held lock word must fail")
	}
	if got := e.tm.FreeSlots(); got != 0 {
		t.Fatalf("quarantined slot was recycled (free slots = %d)", got)
	}
	// Releasing the lock makes the thread closable again.
	leaked.Store(version)
	if err := th.Close(); err != nil {
		t.Fatalf("close after lock release: %v", err)
	}
	if got := e.tm.FreeSlots(); got != 1 {
		t.Fatalf("free slots = %d, want 1", got)
	}
}

// TestCloseDrainsAsyncTruncation commits under asynchronous truncation
// and closes immediately: Close must wait for the slot's pending
// truncation jobs so the handoff sees an empty log, and the recycled
// slot must bind cleanly.
func TestCloseDrainsAsyncTruncation(t *testing.T) {
	e := newEnv(t, Config{Slots: 1, AsyncTruncation: true})
	defer e.tm.Close()
	for i := 0; i < 10; i++ {
		th, err := e.tm.NewThread()
		if err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
		if err := th.Atomic(func(tx *Tx) error {
			for j := int64(0); j < 8; j++ {
				tx.StoreU64(e.data.Add(j*8), uint64(i*100)+uint64(j))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := th.Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	for j := int64(0); j < 8; j++ {
		if got := e.mem.LoadU64(e.data.Add(j * 8)); got != uint64(900)+uint64(j) {
			t.Fatalf("word %d = %d", j, got)
		}
	}
}

// TestPostCommitCleanupErrorDoesNotFailCommit arranges a deferred free
// that must fail (a foreign address outside the heap) and verifies the
// transaction still reports success: the redo record was durable before
// the free ran, so surfacing the cleanup error would tell the caller a
// durable write failed. The failure is counted instead.
func TestPostCommitCleanupErrorDoesNotFailCommit(t *testing.T) {
	e := newEnv(t, Config{})
	heapBase, err := e.rt.PMap(8<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := pheap.Format(e.rt, heapBase, 8<<20, pheap.Config{Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.tm.cfg.Heap = heap
	th, err := e.tm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	before := telPostCommitErr.Value()
	if err := th.Atomic(func(tx *Tx) error {
		tx.StoreU64(e.data, 42)
		// e.data is a valid persistent address but not a heap block, so
		// the commit-deferred PFree must fail.
		return tx.FreeBlock(e.data.Add(64))
	}); err != nil {
		t.Fatalf("Atomic with failing deferred free: %v (transaction is durable; must not error)", err)
	}
	if got := e.mem.LoadU64(e.data); got != 42 {
		t.Fatalf("committed word = %d, want 42", got)
	}
	if got := telPostCommitErr.Value(); got != before+1 {
		t.Fatalf("postcommit cleanup errors = %d, want %d", got, before+1)
	}
	// The thread stays usable for further transactions.
	if err := th.Atomic(func(tx *Tx) error {
		tx.StoreU64(e.data, 43)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := th.Close(); err != nil {
		t.Fatal(err)
	}
}
