package mtm

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/pmem"
	"repro/internal/scm"
)

func TestViewReadsCommitted(t *testing.T) {
	e := newEnv(t, Config{})
	th, err := e.tm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Atomic(func(tx *Tx) error {
		tx.StoreU64(e.data, 42)
		tx.Store(e.data.Add(8), []byte("snapshot"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	views0 := e.tm.Snapshot().Views
	var got uint64
	buf := make([]byte, 8)
	if err := e.tm.View(func(r *ReadTx) error {
		got = r.LoadU64(e.data)
		r.Load(buf, e.data.Add(8))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("LoadU64 = %d, want 42", got)
	}
	if string(buf) != "snapshot" {
		t.Fatalf("Load = %q, want %q", buf, "snapshot")
	}
	if d := e.tm.Snapshot().Views - views0; d != 1 {
		t.Fatalf("Views stat advanced by %d, want 1", d)
	}
}

func TestViewReturnsUserError(t *testing.T) {
	e := newEnv(t, Config{})
	want := fmt.Errorf("user error")
	if err := e.tm.View(func(r *ReadTx) error { return want }); err != want {
		t.Fatalf("View returned %v, want %v", err, want)
	}
}

// TestViewReusesReaderAcrossGC pins View's reader reuse: a reader freed by
// one View serves the next even across garbage collections. A reader that
// a GC dropped would be replaced by a new one, each registering a device
// context that is never removed.
func TestViewReusesReaderAcrossGC(t *testing.T) {
	e := newEnv(t, Config{})
	var first, next *ReadTx
	if err := e.tm.View(func(r *ReadTx) error { first = r; return nil }); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	if err := e.tm.View(func(r *ReadTx) error { next = r; return nil }); err != nil {
		t.Fatal(err)
	}
	if next != first {
		t.Fatal("View minted a new reader after GC instead of reusing the freed one")
	}
}

// TestViewRetriesOnLockedWord pins the covering lock word in the held
// state — exactly what a reader races against mid-commit — and checks the
// View neither blocks the (simulated) writer nor returns early: it backs
// off and completes once the lock is released.
func TestViewRetriesOnLockedWord(t *testing.T) {
	e := newEnv(t, Config{})
	th, err := e.tm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Atomic(func(tx *Tx) error {
		tx.StoreU64(e.data, 7)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	l := e.tm.lockAt(e.tm.lockIdx(e.data))
	free := l.Load()
	l.Store(lockedBit | 1) // a committing writer owns the word

	retries0 := telReadTxRetries.Value()
	done := make(chan uint64, 1)
	go func() {
		var v uint64
		if err := e.tm.View(func(r *ReadTx) error {
			v = r.LoadU64(e.data)
			return nil
		}); err != nil {
			done <- 0
			return
		}
		done <- v
	}()

	select {
	case v := <-done:
		t.Fatalf("View completed (=%d) while the covering lock was held", v)
	case <-time.After(20 * time.Millisecond):
	}
	l.Store(free) // writer releases

	select {
	case v := <-done:
		if v != 7 {
			t.Fatalf("View read %d after release, want 7", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("View still spinning after the lock was released")
	}
	if telReadTxRetries.Value() == retries0 {
		t.Error("no readtx retries recorded across a held-lock race")
	}
}

// TestViewExtendsSnapshot forces the TinySTM extension path: the reader
// samples its snapshot, a writer commits to an unread word (moving the
// clock past the snapshot), and the reader then loads that word. The
// attempt must extend — revalidating the earlier read in place — rather
// than restart, and both loads must remain mutually consistent.
func TestViewExtendsSnapshot(t *testing.T) {
	e := newEnv(t, Config{})
	th, err := e.tm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	a := e.data
	b := e.data.Add(8)
	for off := int64(8); e.tm.lockIdx(a) == e.tm.lockIdx(b); off += 8 {
		b = e.data.Add(off)
	}
	if err := th.Atomic(func(tx *Tx) error {
		tx.StoreU64(a, 1)
		tx.StoreU64(b, 2)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	extends0 := telReadTxExtends.Value()
	first := true
	var gotA, gotB uint64
	if err := e.tm.View(func(r *ReadTx) error {
		gotA = r.LoadU64(a)
		if first {
			first = false
			// Commit past the reader's snapshot before it touches b.
			if err := th.Atomic(func(tx *Tx) error {
				tx.StoreU64(b, 20)
				return nil
			}); err != nil {
				return err
			}
		}
		gotB = r.LoadU64(b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if gotA != 1 || gotB != 20 {
		t.Fatalf("read (a=%d, b=%d), want (1, 20)", gotA, gotB)
	}
	if telReadTxExtends.Value() == extends0 {
		t.Error("no snapshot extension recorded; reader restarted instead")
	}
}

// TestUnboundedReadersOneSlot is the slot-freedom proof: with a single
// log slot — leased, so no writing transaction could even start — dozens
// of concurrent Views run to completion, and the whole reader burst
// issues zero durability fences.
func TestUnboundedReadersOneSlot(t *testing.T) {
	e := newEnv(t, Config{Slots: 1})
	th, err := e.tm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Atomic(func(tx *Tx) error {
		tx.StoreU64(e.data, 99)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The one slot stays leased for the whole burst.
	if _, err := e.tm.NewThread(); err == nil {
		t.Fatal("second NewThread succeeded with Slots=1 leased")
	}

	fences0 := e.dev.Snapshot().Fences
	leases0 := telLeases.Value()
	const readers = 32
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				err := e.tm.View(func(r *ReadTx) error {
					if v := r.LoadU64(e.data); v != 99 {
						return fmt.Errorf("read %d, want 99", v)
					}
					return nil
				})
				if err != nil {
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
	if d := e.dev.Snapshot().Fences - fences0; d != 0 {
		t.Errorf("reader burst issued %d fences, want 0", d)
	}
	if d := telLeases.Value() - leases0; d != 0 {
		t.Errorf("reader burst leased %d threads, want 0", d)
	}
}

// soakSum is the soak invariant: writers move value between slots inside
// one transaction, so the wrapping sum over all slots is always zero in
// every committed state.
func soakSum(r *ReadTx, base pmem.Addr, slots int) uint64 {
	var sum uint64
	for i := 0; i < slots; i++ {
		sum += r.LoadU64(base.Add(int64(i) * 8))
	}
	return sum
}

// TestViewWriterSoak races View readers against Atomic writers — with a
// crash and reattach in the middle — and asserts every snapshot is whole:
// a reader that ever observed a half-applied transfer would see a nonzero
// sum. Run under -race this also proves the reader path is data-race
// free against commits and write-backs.
func TestViewWriterSoak(t *testing.T) {
	const (
		slots   = 16
		writers = 4
		readers = 4
		iters   = 300
	)
	cfg := Config{Slots: writers}
	e := newEnv(t, cfg)

	phase := func() {
		commits0 := e.tm.Snapshot().Commits
		var wg sync.WaitGroup
		errs := make(chan error, writers+readers)
		stop := make(chan struct{})
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th, err := e.tm.NewThread()
				if err != nil {
					errs <- err
					return
				}
				defer th.Close()
				rng := rand.New(rand.NewSource(int64(w + 1)))
				for n := 0; n < iters; n++ {
					i, j := rng.Intn(slots), rng.Intn(slots)
					v := uint64(rng.Int63n(1000) + 1)
					err := th.Atomic(func(tx *Tx) error {
						ai, aj := e.data.Add(int64(i)*8), e.data.Add(int64(j)*8)
						tx.StoreU64(ai, tx.LoadU64(ai)-v)
						tx.StoreU64(aj, tx.LoadU64(aj)+v)
						return nil
					})
					if err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					err := e.tm.View(func(r *ReadTx) error {
						if sum := soakSum(r, e.data, slots); sum != 0 {
							return fmt.Errorf("torn snapshot: sum %d", sum)
						}
						return nil
					})
					if err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		// Writers finish; then release the readers.
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		for {
			select {
			case err := <-errs:
				close(stop)
				<-done
				t.Fatal(err)
			case <-time.After(10 * time.Millisecond):
			}
			if e.tm.Snapshot().Commits >= commits0+uint64(writers*iters) {
				break
			}
		}
		close(stop)
		<-done
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	}

	phase()
	// Power failure mid-test: every acknowledged commit must survive, and
	// recovered state must still satisfy the invariant for fresh readers.
	e.reopen(t, scm.DropAll{}, cfg)
	if err := e.tm.View(func(r *ReadTx) error {
		if sum := soakSum(r, e.data, slots); sum != 0 {
			return fmt.Errorf("torn snapshot after recovery: sum %d", sum)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	phase()
}
