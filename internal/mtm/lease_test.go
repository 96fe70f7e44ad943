package mtm

import (
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

// TestLeaseThreadWaitsForRelease leases the only slot, then verifies a
// bounded-wait lease blocks until Close frees it — the queue-not-error
// behavior servers rely on for connection bursts.
func TestLeaseThreadWaitsForRelease(t *testing.T) {
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
		th2, err := e.tm.LeaseThread(5 * time.Second)
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

// TestLeaseThreadTimesOut verifies the bounded wait actually bounds.
func TestLeaseThreadTimesOut(t *testing.T) {
	e := newEnv(t, Config{Slots: 1})
	th, err := e.tm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	if _, err := e.tm.LeaseThread(20 * time.Millisecond); !errors.Is(err, ErrLeaseTimeout) {
		t.Fatalf("lease on full TM: %v, want ErrLeaseTimeout", err)
	}
	// Non-positive timeout degenerates to NewThread's immediate error.
	if _, err := e.tm.LeaseThread(0); err != ErrTooManyThreads {
		t.Fatalf("zero-timeout lease: %v, want ErrTooManyThreads", err)
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
