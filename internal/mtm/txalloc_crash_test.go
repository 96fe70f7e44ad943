package mtm

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/crashpoint"
	"repro/internal/pheap"
	"repro/internal/pmem"
	"repro/internal/scm"
)

// Transactional-allocation crash exploration. The workload is a table of
// eight persistent pointer slots whose blocks transactions allocate, free
// and replace from two threads (two logs, so recovery's cross-log
// timestamp order matters). The oracle is the acked-prefix contract of
// TestCrashPointsMTM plus the allocator's own: after recovery the blocks
// the heap holds allocated are exactly the blocks the slots reach — no
// leak, no block reachable but free, none reachable twice — the heap's
// metadata passes Check, and a second heap Open over the same bytes (a
// pure scavenge: recovery truncated the logs) finds the same allocated
// set, i.e. the volatile bitmaps recovery left equal the persistent ones.

const (
	txAllocSlots    = 8
	txAllocBlock    = 64
	txAllocHeapSize = 128 << 10
)

// txAllocStep is one transaction: free the blocks of some slots (PFree),
// fill others with fresh blocks (PMalloc), optionally allocate and free a
// block inside the same transaction, optionally abort at the end.
type txAllocStep struct {
	thread int
	free   []int
	alloc  []int
	churn  bool
	abort  bool
}

// txAllocScript groups steps into units. Outside group commit every step
// is its own transaction and the groups mean nothing; under group commit a
// unit's steps (distinct threads, disjoint slots) commit as one epoch.
var txAllocScript = [][]txAllocStep{
	{{thread: 0, alloc: []int{0, 1, 2}}, {thread: 1, alloc: []int{3}}},
	{{thread: 0, free: []int{1}}},
	{{thread: 1, alloc: []int{4}, abort: true}},
	// Replace (free + allocate in one size class, the overwrite-Put
	// shape) beside an allocation that may reuse the block freed above.
	{{thread: 0, free: []int{0}, alloc: []int{0}}, {thread: 1, alloc: []int{1}}},
	// Thread 0 frees what thread 1 allocated: with both records still in
	// their logs, replaying log by log instead of by timestamp would
	// clear the bit first and set it afterwards — a leak.
	{{thread: 0, free: []int{3, 2}, alloc: []int{5}}, {thread: 1, free: []int{1}}},
	{{thread: 0, churn: true, alloc: []int{6}}},
	{{thread: 1, free: []int{0}, alloc: []int{2}, abort: true}},
	{{thread: 1, free: []int{0}, alloc: []int{2}}, {thread: 0, free: []int{6}}},
}

var errTxAllocAbort = errors.New("scripted abort")

func txAllocTag(step, slot int) uint64 { return uint64(step+1)<<8 | uint64(slot) }

// run executes the step inside tx. step is its global index, the tag of
// the blocks it writes.
func (s txAllocStep) run(tx *Tx, data pmem.Addr, step int) error {
	for _, slot := range s.free {
		if err := tx.PFree(data.Add(int64(slot) * 8)); err != nil {
			return err
		}
	}
	for _, slot := range s.alloc {
		b, err := tx.PMalloc(txAllocBlock, data.Add(int64(slot)*8))
		if err != nil {
			return err
		}
		tx.StoreU64(b, txAllocTag(step, slot))
		tx.StoreU64(b.Add(8), ^txAllocTag(step, slot))
	}
	if s.churn {
		b, err := tx.Alloc(txAllocBlock)
		if err != nil {
			return err
		}
		tx.StoreU64(b, 1)
		if err := tx.FreeBlock(b); err != nil {
			return err
		}
	}
	if s.abort {
		return errTxAllocAbort
	}
	return nil
}

// txAllocStates returns the expected slot tags after each acknowledged
// unit: per step, or per whole group under group commit.
func txAllocStates(grouped bool) [][txAllocSlots]uint64 {
	var cur [txAllocSlots]uint64
	states := [][txAllocSlots]uint64{cur}
	step := 0
	for _, unit := range txAllocScript {
		for _, s := range unit {
			if !s.abort {
				for _, slot := range s.free {
					cur[slot] = 0
				}
				for _, slot := range s.alloc {
					cur[slot] = txAllocTag(step, slot)
				}
			}
			step++
			if !grouped {
				states = append(states, cur)
			}
		}
		if grouped {
			states = append(states, cur)
		}
	}
	return states
}

type txAllocMode struct {
	name  string
	cfg   Config
	group bool // commit each unit as one manually flushed epoch
	async bool // drive the log manager by hand, late
}

func TestCrashPointsTxAlloc(t *testing.T) {
	for _, mode := range []txAllocMode{
		{name: "redo", cfg: Config{}},
		// Threshold 4 sends the 1–4 word transactions down the undo path
		// and the larger ones down redo, in one log.
		{name: "hybrid", cfg: Config{CommitMode: "hybrid", HybridUndoMax: 4}},
		{name: "groupcommit", cfg: Config{GroupCommit: true}, group: true},
		{name: "async", cfg: Config{AsyncTruncation: true}, async: true},
		{name: "undo-ablation", cfg: Config{UndoLogging: true}},
	} {
		t.Run(mode.name, func(t *testing.T) { exploreTxAlloc(t, mode) })
	}
}

func exploreTxAlloc(t *testing.T, mode txAllocMode) {
	states := txAllocStates(mode.group)
	workload := func() (*crashpoint.Run, error) {
		dev, err := scm.Open(scm.Config{Size: 4 << 20, Mode: scm.DelayOff})
		if err != nil {
			return nil, err
		}
		dir := t.TempDir()
		acked := 0
		cfg := mode.cfg
		cfg.Slots, cfg.LogWords = 2, 256

		openAll := func() (*heapStack, error) {
			s, err := openHeapStack(dev, dir, "txalloc", cfg, txAllocHeapSize)
			if err == nil && mode.async {
				// The manager goroutine would make the event sequence
				// depend on scheduling; the body runs its work by hand.
				s.tm.StopTruncation()
			}
			return s, err
		}
		return &crashpoint.Run{
			Dev: dev,
			Body: func() error {
				s, err := openAll()
				if err != nil {
					return err
				}
				var threads [2]*Thread
				for k := range threads {
					if threads[k], err = s.tm.NewThread(); err != nil {
						return err
					}
				}
				mgrMem := s.rt.NewMemory()
				runManager := func() { runQueuedJobs(s.tm, mgrMem) }
				step := 0
				for u, unit := range txAllocScript {
					var members []*pendingCommit
					for _, st := range unit {
						th, i := threads[st.thread], step
						step++
						if !mode.group {
							err := th.Atomic(func(tx *Tx) error { return st.run(tx, s.data, i) })
							if err != nil && !(st.abort && errors.Is(err, errTxAllocAbort)) {
								return fmt.Errorf("step %d: %w", i, err)
							}
							acked++
							continue
						}
						// Group commit: run the body and enqueue by hand,
						// as TestCrashPointsGroupCommit does.
						tx := &th.tx
						tx.begin()
						if err := st.run(tx, s.data, i); err != nil {
							tx.rollback()
							if !st.abort {
								return fmt.Errorf("step %d: %w", i, err)
							}
							continue
						}
						if !tx.validate() {
							return fmt.Errorf("step %d failed validation", i)
						}
						tx.flushFresh() // as commit does before handing over
						tx.endWriting()
						pc := &th.pending
						pc.tx, pc.ts, pc.err = tx, s.tm.clock.Add(1), nil
						members = append(members, pc)
					}
					if mode.group {
						s.tm.gc.flushEpoch(uint64(u+1), members)
						for _, pc := range members {
							if err := s.tm.gc.finish(pc); err != nil {
								return fmt.Errorf("unit %d: %w", u, err)
							}
						}
						acked++
					}
					// One late manager round leaves the first five units'
					// records, from both logs, to recovery.
					if mode.async && u == 4 {
						runManager()
					}
				}
				if mode.async {
					runManager()
				}
				return nil
			},
			Check: func() error {
				s, err := openAll()
				if err != nil {
					return fmt.Errorf("stack not reopenable after %d acked units: %w", acked, err)
				}
				defer s.rt.Close()
				defer s.tm.Close()
				mem := s.rt.NewMemory()

				var got [txAllocSlots]uint64
				reach := map[pmem.Addr]bool{}
				for slot := 0; slot < txAllocSlots; slot++ {
					b := pmem.Addr(mem.LoadU64(s.data.Add(int64(slot) * 8)))
					if b == pmem.Nil {
						continue
					}
					if reach[b] {
						return fmt.Errorf("block %v is reachable from two slots", b)
					}
					reach[b] = true
					got[slot] = mem.LoadU64(b)
					if mem.LoadU64(b.Add(8)) != ^got[slot] {
						return fmt.Errorf("slot %d points at a torn block %v", slot, b)
					}
				}
				match := false
				for _, m := range []int{acked, acked + 1} {
					match = match || (m < len(states) && got == states[m])
				}
				if !match {
					return fmt.Errorf("slots %x match neither %d nor %d acked units", got, acked, acked+1)
				}

				if err := s.heap.Check(); err != nil {
					return err
				}
				live := allocatedSet(s.heap)
				for b := range reach {
					if !live[b] {
						return fmt.Errorf("reachable block %v is free (double allocation ahead)", b)
					}
				}
				if len(live) != len(reach) {
					return fmt.Errorf("%d blocks allocated, %d reachable: leak", len(live), len(reach))
				}
				rescanned, err := pheap.Open(s.rt, s.heapBase)
				if err != nil {
					return err
				}
				persistent := allocatedSet(rescanned)
				for b := range live {
					if !persistent[b] {
						return fmt.Errorf("block %v allocated in the recovered volatile bitmap but not the persistent one", b)
					}
				}
				if len(persistent) != len(live) {
					return fmt.Errorf("persistent bitmaps hold %d blocks, recovered volatile ones %d", len(persistent), len(live))
				}
				return nil
			},
		}, nil
	}

	rep, err := crashpoint.Explore(workload, crashpoint.Options{
		Schedule: crashpoint.TestSchedule(testing.Short(), 32),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		for _, f := range rep.Failures {
			t.Errorf("%v", f)
		}
		t.Fatalf("transactional-allocation oracle failed at %d of %d crash points (%s)",
			len(rep.Failures), rep.Points, rep)
	}
	t.Logf("txalloc/%s: %s", mode.name, rep)
}
