package mtm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pheap"
	"repro/internal/pmem"
	"repro/internal/scm"
)

// TestFreshStoreTailIsZero: a byte-granular Store that ends mid-word in a
// block the transaction just allocated builds that word from zero. The
// block's memory is whatever its previous owner left — 0xFF here — and a
// read-modify-write of it would carry those bytes into the new value's
// padding (and, before fresh stores bypassed the log, into the record, with
// a read-set entry for garbage on the way). Checked after commit and after
// a crash that leaves the commit record to recovery.
func TestFreshStoreTailIsZero(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			dev, err := scm.Open(scm.Config{Size: 8 << 20, Mode: scm.DelayOff})
			if err != nil {
				t.Fatal(err)
			}
			dir, cfg := t.TempDir(), Config{Slots: 2, AsyncTruncation: async}
			s, err := openHeapStack(dev, dir, "tail", cfg, 256<<10)
			if err != nil {
				t.Fatal(err)
			}
			th, err := s.tm.NewThread()
			if err != nil {
				t.Fatal(err)
			}
			// 8-byte length, 13 value bytes: the value ends five bytes into
			// the block's third word.
			const size = 8 + 13
			var old pmem.Addr
			must := func(fn func(tx *Tx) error) {
				t.Helper()
				if err := th.Atomic(fn); err != nil {
					t.Fatal(err)
				}
			}
			must(func(tx *Tx) (err error) {
				if old, err = tx.PMalloc(size, s.data); err != nil {
					return err
				}
				for w := int64(0); w < 4; w++ { // the whole 32-byte block
					tx.StoreU64(old.Add(w*8), ^uint64(0))
				}
				return nil
			})
			must(func(tx *Tx) error { return tx.PFree(s.data) })
			// The freed block becomes allocatable once its record is gone;
			// then stall truncation so the next record stays in the log.
			s.tm.Drain()
			s.tm.StopTruncation()

			value := bytes.Repeat([]byte{0xAB}, 13)
			var blk pmem.Addr
			must(func(tx *Tx) (err error) {
				if blk, err = tx.PMalloc(size, s.data); err != nil {
					return err
				}
				tx.StoreU64(blk, uint64(len(value)))
				tx.Store(blk.Add(8), value)
				return nil
			})
			if blk != old {
				t.Fatalf("allocated %v, want the recycled block %v", blk, old)
			}
			check := func(when string, mem pmem.Memory) {
				t.Helper()
				if got := mem.LoadU64(blk); got != 13 {
					t.Fatalf("%s: length word %#x", when, got)
				}
				if got := mem.LoadU64(blk.Add(8)); got != 0xABABABABABABABAB {
					t.Fatalf("%s: first value word %#x", when, got)
				}
				if got := mem.LoadU64(blk.Add(16)); got != 0x000000ABABABABAB {
					t.Fatalf("%s: tail word %#x: padding is not zero", when, got)
				}
			}
			check("after commit", s.rt.NewMemory())

			s.tm.Close()
			dev.Crash(scm.DropAll{})
			if err := s.rt.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = openHeapStack(dev, dir, "tail", cfg, 256<<10); err != nil {
				t.Fatal(err)
			}
			defer s.tm.Close()
			if got, want := s.tm.Recovery().Replayed, map[bool]int{false: 0, true: 1}[async]; got != want {
				t.Fatalf("recovery replayed %d records, want %d", got, want)
			}
			mem := s.rt.NewMemory()
			if got := pmem.Addr(mem.LoadU64(s.data)); got != blk {
				t.Fatalf("after crash: slot holds %v, want %v", got, blk)
			}
			check("after crash", mem)
		})
	}
}

// TestFreshBlocksKeepIsolation: snapshot readers follow pointers to value
// blocks while writers overwrite the same keys fast enough that freed blocks
// are recycled and refilled — out of log, with plain stores — under readers
// still holding the old pointer. A reader must see one whole value, old or
// new, or retry; never bytes of two. That is what taking each fresh word's
// lock before storing to it buys: store without it and this test fails.
// Run under -race.
func TestFreshBlocksKeepIsolation(t *testing.T) {
	const (
		keys, writers, readers = 4, 2, 3
		valueLen               = 600 // ten cache lines
	)
	rounds := 1500
	if testing.Short() {
		rounds = 400
	}
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"redo", Config{}},
		{"hybrid", Config{CommitMode: "hybrid"}},
		{"async", Config{AsyncTruncation: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := mode.cfg
			cfg.Slots = writers
			e := newEnv(t, cfg)
			defer e.tm.Close()
			e.attachHeap(t, 2)

			// A value is a header word carrying its stamp and valueLen bytes
			// that all repeat the stamp's low byte.
			boom := errors.New("abandon")
			var stamp atomic.Uint64
			var stop atomic.Bool
			var wg, rg sync.WaitGroup
			for w := 0; w < writers; w++ {
				th, err := e.tm.NewThread()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(w int, th *Thread) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < rounds; i++ {
						slot := e.data.Add(int64(rng.Intn(keys)) * 8)
						v := stamp.Add(1)
						fill := bytes.Repeat([]byte{byte(v)}, valueLen)
						abandon := rng.Intn(8) == 0
						err := th.Atomic(func(tx *Tx) error {
							if tx.LoadU64(slot) != 0 {
								if err := tx.PFree(slot); err != nil {
									return err
								}
							}
							b, err := tx.PMalloc(8+valueLen, slot)
							if err != nil {
								return err
							}
							tx.StoreU64(b, v)
							tx.Store(b.Add(8), fill)
							if abandon {
								return boom // garbage stays behind in a free block
							}
							return nil
						})
						if err != nil && !errors.Is(err, boom) {
							t.Errorf("writer %d round %d: %v", w, i, err)
							return
						}
					}
					if err := th.Close(); err != nil {
						t.Errorf("writer %d close: %v", w, err)
					}
				}(w, th)
			}
			var reads atomic.Int64
			for r := 0; r < readers; r++ {
				rg.Add(1)
				go func(r int) {
					defer rg.Done()
					rng := rand.New(rand.NewSource(int64(100 + r)))
					buf := make([]byte, valueLen)
					for !stop.Load() {
						slot := e.data.Add(int64(rng.Intn(keys)) * 8)
						var hdr uint64
						var blk pmem.Addr
						if err := e.tm.View(func(rd *ReadTx) error {
							if blk = pmem.Addr(rd.LoadU64(slot)); blk == pmem.Nil {
								return nil
							}
							hdr = rd.LoadU64(blk)
							rd.Load(buf, blk.Add(8))
							return nil
						}); err != nil {
							t.Errorf("reader %d: %v", r, err)
							return
						}
						if blk == pmem.Nil {
							continue
						}
						reads.Add(1)
						for i, c := range buf {
							if c != byte(hdr) {
								t.Errorf("reader %d: torn value in %v: stamp %d, byte %d is %#x", r, blk, hdr, i, c)
								return
							}
						}
					}
				}(r)
			}
			wg.Wait()
			stop.Store(true)
			rg.Wait()
			if reads.Load() == 0 {
				t.Fatal("no reader completed a read")
			}
		})
	}
}

// TestFreshAbortMovesVersions is the one interleaving the soak above rarely
// hits, run deterministically: a snapshot reader is halfway through a value
// block when the block is freed, recycled by a transaction that fills it out
// of log, and given back by that transaction's abort. The bytes under the
// reader changed with no commit; restoring the locks' old versions, as an
// abort that wrote nothing does, would let the reader finish with half of
// each value. The abort publishes new versions instead, so the reader
// revalidates the pointer it came through, finds it moved, and retries.
func TestFreshAbortMovesVersions(t *testing.T) {
	const valueLen = 256
	e := newEnv(t, Config{})
	defer e.tm.Close()
	e.attachHeap(t, 1)
	th, err := e.tm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	slot, boom := e.data, errors.New("abandon")
	put := func(v byte, commit bool) (blk pmem.Addr) {
		t.Helper()
		err := th.Atomic(func(tx *Tx) (err error) {
			if tx.LoadU64(slot) != 0 {
				if err := tx.PFree(slot); err != nil {
					return err
				}
			}
			if blk, err = tx.PMalloc(8+valueLen, slot); err != nil {
				return err
			}
			tx.StoreU64(blk, uint64(v))
			tx.Store(blk.Add(8), bytes.Repeat([]byte{v}, valueLen))
			if !commit {
				return boom
			}
			return nil
		})
		if err != nil && !errors.Is(err, boom) {
			t.Fatal(err)
		}
		return blk
	}
	first := put(1, true)

	attempts := 0
	var hdr uint64
	buf := make([]byte, valueLen)
	if err := e.tm.View(func(rd *ReadTx) error {
		attempts++
		blk := pmem.Addr(rd.LoadU64(slot))
		hdr = rd.LoadU64(blk)
		rd.Load(buf[:valueLen/2], blk.Add(8))
		if attempts == 1 {
			put(2, true) // frees the block the reader is in
			if again := put(3, false); again != first {
				t.Fatalf("aborted transaction filled %v, want the recycled %v", again, first)
			}
		}
		rd.Load(buf[valueLen/2:], blk.Add(8+valueLen/2))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Errorf("reader finished after %d attempts, want a retry", attempts)
	}
	if want := bytes.Repeat([]byte{2}, valueLen); hdr != 2 || !bytes.Equal(buf, want) {
		t.Errorf("reader returned stamp %d with bytes %x…%x, want the committed value 2", hdr, buf[0], buf[valueLen-1])
	}
}

// TestAsyncFreesWaitForTruncation: under asynchronous truncation a freed
// block — small or large — stays allocated until the log manager has
// truncated the record that freed it. Whoever gets the block next fills it
// out of log, so a record still in some log with a store into the block's
// old life (here the second transaction's in-place update) must not be
// replayable by then; recovery would write it over the new owner's bytes.
func TestAsyncFreesWaitForTruncation(t *testing.T) {
	e := newEnv(t, Config{AsyncTruncation: true})
	heap := e.attachHeap(t, 1)
	e.tm.mgr.stop()
	e.tm.mgr = newBlockedManager(e.tm) // jobs queue up; the test runs them by hand
	th, err := e.tm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	must := func(fn func(tx *Tx) error) {
		t.Helper()
		if err := th.Atomic(fn); err != nil {
			t.Fatal(err)
		}
	}
	var small, large pmem.Addr
	must(func(tx *Tx) (err error) {
		if small, err = tx.PMalloc(64, e.data); err != nil {
			return err
		}
		large, err = tx.PMalloc(2*pheap.MaxSmall, e.data.Add(8))
		return err
	})
	must(func(tx *Tx) error { // logged stores into both blocks
		tx.StoreU64(small, 1)
		tx.StoreU64(large, 1)
		return nil
	})
	must(func(tx *Tx) error {
		if err := tx.PFree(e.data); err != nil {
			return err
		}
		return tx.PFree(e.data.Add(8))
	})
	if live := liveBlocks(heap); !live[small] || !live[large] {
		t.Fatalf("freed blocks released with their records still in the log: small %v large %v", live[small], live[large])
	}
	boom := errors.New("abandon")
	if err := th.Atomic(func(tx *Tx) error { // neither may be handed out again yet
		a, err := tx.Alloc(64)
		if err != nil {
			return err
		}
		b, err := tx.Alloc(2 * pheap.MaxSmall)
		if err != nil {
			return err
		}
		if a == small || b == large {
			t.Errorf("allocated %v and %v: a block whose free is not truncated yet was recycled", a, b)
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	runQueuedJobs(e.tm, e.rt.NewMemory())
	if live := liveBlocks(heap); live[small] || live[large] {
		t.Fatalf("blocks still allocated after their frees were truncated: small %v large %v", live[small], live[large])
	}
	e.tm.mgr = nil // nothing for Close to drain
}
