package mtm

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/pheap"
	"repro/internal/pmem"
	"repro/internal/scm"
)

// attachHeap formats a heap in the environment's runtime and attaches it
// to the already-open TM (threads bound afterwards get an allocator).
func (e *env) attachHeap(t *testing.T, lanes int) *pheap.Heap {
	t.Helper()
	base, err := e.rt.PMap(8<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := pheap.Format(e.rt, base, 8<<20, pheap.Config{Lanes: lanes})
	if err != nil {
		t.Fatal(err)
	}
	e.tm.cfg.Heap = heap
	return heap
}

func liveBlocks(h *pheap.Heap) map[pmem.Addr]bool {
	live := map[pmem.Addr]bool{}
	h.ForEachAllocated(func(a pmem.Addr, _ int64) bool { live[a] = true; return true })
	return live
}

// TestTxAllocConcurrent replaces, frees and abandons blocks from several
// threads at once — allocations of one size class share superblocks, so
// the committers' bitmap updates meet in the same persistent words — and
// then checks the books: the heap holds exactly the blocks the slots
// reach, before and after a crash. Run under -race.
func TestTxAllocConcurrent(t *testing.T) {
	const workers, slotsPer, rounds = 4, 8, 150
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"redo", Config{}},
		{"hybrid", Config{CommitMode: "hybrid"}},
		{"groupcommit", Config{GroupCommit: true}},
		{"async", Config{AsyncTruncation: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := mode.cfg
			cfg.Slots = workers
			e := newEnv(t, cfg)
			defer e.tm.Close()
			heap := e.attachHeap(t, 2)
			boom := errors.New("abandon")
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				th, err := e.tm.NewThread()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(w int, th *Thread) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					slot := func() pmem.Addr { return e.data.Add(int64(w*slotsPer+rng.Intn(slotsPer)) * 8) }
					for i := 0; i < rounds; i++ {
						p, abandon := slot(), rng.Intn(5) == 0
						err := th.Atomic(func(tx *Tx) error {
							if tx.LoadU64(p) != 0 {
								if err := tx.PFree(p); err != nil {
									return err
								}
								if rng.Intn(3) == 0 {
									return nil // plain free
								}
							}
							b, err := tx.PMalloc(48, p)
							if err != nil {
								return err
							}
							tx.StoreU64(b, uint64(b))
							if abandon {
								return boom
							}
							return nil
						})
						if err != nil && !errors.Is(err, boom) {
							t.Errorf("worker %d round %d: %v", w, i, err)
							return
						}
					}
					if err := th.Close(); err != nil {
						t.Errorf("worker %d close: %v", w, err)
					}
				}(w, th)
			}
			wg.Wait()
			e.tm.Drain()

			check := func(when string, live map[pmem.Addr]bool) {
				t.Helper()
				reach := 0
				for s := 0; s < workers*slotsPer; s++ {
					b := pmem.Addr(e.mem.LoadU64(e.data.Add(int64(s) * 8)))
					if b == pmem.Nil {
						continue
					}
					reach++
					if !live[b] {
						t.Fatalf("%s: slot %d reaches free block %v", when, s, b)
					}
					if got := e.mem.LoadU64(b); got != uint64(b) {
						t.Fatalf("%s: block %v holds %#x", when, b, got)
					}
				}
				if len(live) != reach {
					t.Fatalf("%s: %d blocks allocated, %d reachable", when, len(live), reach)
				}
			}
			check("quiesced", liveBlocks(heap))
			if err := heap.Check(); err != nil {
				t.Fatal(err)
			}
			e.dev.Crash(scm.DropAll{})
			reopened, err := pheap.Open(e.rt, heap.Base())
			if err != nil {
				t.Fatal(err)
			}
			check("after crash", liveBlocks(reopened))
		})
	}
}

// TestTxLargeObjects: blocks above pheap.MaxSmall keep the lane log inside
// a transaction — allocated at once, freed again on abort, freed after
// commit — beside small blocks that ride the commit record.
func TestTxLargeObjects(t *testing.T) {
	e := newEnv(t, Config{})
	heap := e.attachHeap(t, 1)
	th, err := e.tm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	const large = 3 * pheap.MaxSmall
	boom := errors.New("boom")
	if err := th.Atomic(func(tx *Tx) error {
		if _, err := tx.PMalloc(large, e.data); err != nil {
			return err
		}
		if _, err := tx.PMalloc(64, e.data.Add(8)); err != nil {
			return err
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if n := len(liveBlocks(heap)); n != 0 {
		t.Fatalf("%d blocks survive an aborted transaction", n)
	}
	if err := th.Atomic(func(tx *Tx) error {
		b, err := tx.PMalloc(large, e.data)
		if err != nil {
			return err
		}
		tx.StoreU64(b.Add(large-8), 7)
		_, err = tx.PMalloc(64, e.data.Add(8))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n := len(liveBlocks(heap)); n != 2 {
		t.Fatalf("%d blocks allocated, want 2", n)
	}
	if err := th.Atomic(func(tx *Tx) error {
		if err := tx.PFree(e.data); err != nil {
			return err
		}
		return tx.PFree(e.data.Add(8))
	}); err != nil {
		t.Fatal(err)
	}
	if n := len(liveBlocks(heap)); n != 0 {
		t.Fatalf("%d blocks survive their frees", n)
	}
	// A second free of a small block is refused when it is issued.
	if err := th.Atomic(func(tx *Tx) error {
		b, err := tx.Alloc(64)
		if err != nil {
			return err
		}
		tx.StoreU64(e.data.Add(16), uint64(b))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	b := pmem.Addr(e.mem.LoadU64(e.data.Add(16)))
	if err := th.Atomic(func(tx *Tx) error { return tx.FreeBlock(b) }); err != nil {
		t.Fatal(err)
	}
	if err := th.Atomic(func(tx *Tx) error { return tx.FreeBlock(b) }); !errors.Is(err, pheap.ErrDoubleFree) {
		t.Fatalf("second free returned %v, want ErrDoubleFree", err)
	}
	if err := th.Close(); err != nil {
		t.Fatal(err)
	}
}
