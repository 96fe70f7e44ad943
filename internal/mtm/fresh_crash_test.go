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

// Fresh-fill crash exploration. Two threads overwrite the values of five
// keys; every value is filled out of log, into a block its transaction just
// allocated, and flushed ahead of the commit record. The oracle: after a
// crash at any persistence event each key reads back byte for byte as the
// value of a whole number of acknowledged transactions — the last one
// acknowledged or the one in flight — never bytes of two values and never
// bytes that were in the block before; and the allocator's books balance.
// What it is there to catch is a commit record that becomes durable before
// the payload it points to: drop flushFresh, or run it after the append, and
// this test fails (mutation-checked, on the sampled schedule too).

const (
	freshKeys     = 5
	freshHeapSize = 192 << 10
)

// freshSize is the value length of key's version: multi-line values, two
// 8-byte ones whose 16-byte blocks share a cache line with each other and
// with live neighbours, and for key 3 a value above pheap.MaxSmall (lane-log
// allocated) between two small ones.
func freshSize(key, version int) int {
	switch key {
	case 0:
		return 150 + version // ends mid-word
	case 1, 2:
		return 8
	case 3:
		if version%2 == 0 {
			return pheap.MaxSmall + 5
		}
		return 100
	}
	return 330
}

func freshValue(key, version int) []byte {
	b := make([]byte, freshSize(key, version))
	for i := range b {
		b[i] = byte(key*131 + version*37 + i*7 + 1)
	}
	return b
}

// freshStep is one transaction: overwrite each key with its next version.
type freshStep struct {
	thread int
	keys   []int
	abort  bool
}

// freshScript groups steps into units as txAllocScript does: under group
// commit a unit's steps (distinct threads, disjoint keys) are one epoch.
var freshScript = [][]freshStep{
	// Two-key transactions log two pointer words: redo even in hybrid mode
	// with the threshold at one.
	{{thread: 0, keys: []int{0, 1}}, {thread: 1, keys: []int{2, 3}}},
	{{thread: 0, keys: []int{1}}, {thread: 1, keys: []int{2}}},
	{{thread: 1, keys: []int{3}}}, // the large value
	{{thread: 0, keys: []int{0}}, {thread: 1, keys: []int{2, 4}}},
	{{thread: 0, keys: []int{1}, abort: true}},
	// Thread 0 frees the large block thread 1 allocated, and refills what
	// the abort above left garbage in.
	{{thread: 0, keys: []int{3, 1}}, {thread: 1, keys: []int{0}}},
	{{thread: 1, keys: []int{1, 2}}},
	{{thread: 0, keys: []int{3}}, {thread: 1, keys: []int{4}}}, // large again, in the recycled chunk
}

var errFreshAbort = errors.New("scripted abort")

// wordsOnly is the crash policy the standard four lack and this protocol
// needs: every unfenced streaming word reaches SCM (write-combining buffers
// may drain at any time) and no dirty cache line does. It turns a commit
// record appended ahead of its payload's flushes into a durable record over
// missing bytes; the split policies never keep all of a record's words.
type wordsOnly struct{}

func (wordsOnly) KeepLine(int64) bool { return false }
func (wordsOnly) KeepWord(int64) bool { return true }

// run overwrites the step's keys inside tx; versions holds each key's
// current version and is advanced.
func (s freshStep) run(tx *Tx, data pmem.Addr, versions *[freshKeys]int) error {
	for _, key := range s.keys {
		slot := data.Add(int64(key) * 8)
		if tx.LoadU64(slot) != 0 {
			if err := tx.PFree(slot); err != nil {
				return err
			}
		}
		val := freshValue(key, versions[key]+1)
		b, err := tx.PMalloc(8+int64(len(val)), slot)
		if err != nil {
			return err
		}
		tx.StoreU64(b, uint64(len(val)))
		tx.Store(b.Add(8), val)
	}
	if s.abort {
		return errFreshAbort
	}
	for _, key := range s.keys {
		versions[key]++
	}
	return nil
}

// freshStates returns the keys' versions after each acknowledged unit: per
// step, or per whole group under group commit.
func freshStates(grouped bool) [][freshKeys]int {
	var cur [freshKeys]int
	states := [][freshKeys]int{cur}
	for _, unit := range freshScript {
		for _, s := range unit {
			if !s.abort {
				for _, key := range s.keys {
					cur[key]++
				}
			}
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

func TestCrashPointsFreshFill(t *testing.T) {
	for _, mode := range []txAllocMode{
		{name: "redo", cfg: Config{}},
		{name: "hybrid", cfg: Config{CommitMode: "hybrid", HybridUndoMax: 1}},
		{name: "groupcommit", cfg: Config{GroupCommit: true}, group: true},
		{name: "async", cfg: Config{AsyncTruncation: true}, async: true},
		{name: "undo-ablation", cfg: Config{UndoLogging: true}},
	} {
		t.Run(mode.name, func(t *testing.T) { exploreFreshFill(t, mode) })
	}
}

func exploreFreshFill(t *testing.T, mode txAllocMode) {
	states := freshStates(mode.group)
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
			s, err := openHeapStack(dev, dir, "freshfill", cfg, freshHeapSize)
			if err == nil && mode.async {
				// The body runs the manager's work by hand, late.
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
				var versions [freshKeys]int
				for u, unit := range freshScript {
					var members []*pendingCommit
					for _, st := range unit {
						th := threads[st.thread]
						if !mode.group {
							err := th.Atomic(func(tx *Tx) error { return st.run(tx, s.data, &versions) })
							if err != nil && !(st.abort && errors.Is(err, errFreshAbort)) {
								return fmt.Errorf("unit %d: %w", u, err)
							}
							acked++
							continue
						}
						// Group commit: run the body, then do what commit does
						// up to the enqueue, by hand.
						tx := &th.tx
						tx.begin()
						if err := st.run(tx, s.data, &versions); err != nil {
							tx.rollback()
							if !st.abort {
								return fmt.Errorf("unit %d: %w", u, err)
							}
							continue
						}
						if !tx.validate() {
							return fmt.Errorf("unit %d failed validation", u)
						}
						tx.flushFresh()
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
					// Two late manager rounds: each leaves several units'
					// records, from both logs, to recovery, and frees what they
					// freed (the large chunk among it) only afterwards.
					if mode.async && (u == 3 || u == 6) {
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

				// Which whole state do the slots show? Each key's bytes must
				// be one version's exactly; the versions together must be the
				// state after acked or acked+1 units.
				var got [freshKeys]int
				reach := map[pmem.Addr]bool{}
				for key := 0; key < freshKeys; key++ {
					b := pmem.Addr(mem.LoadU64(s.data.Add(int64(key) * 8)))
					if b == pmem.Nil {
						continue
					}
					if reach[b] {
						return fmt.Errorf("block %v is reachable from two keys", b)
					}
					reach[b] = true
					n := mem.LoadU64(b)
					if n == 0 || n > pheap.MaxSmall+64 {
						return fmt.Errorf("key %d: block %v holds length %d", key, b, n)
					}
					val := make([]byte, n)
					mem.Load(val, b.Add(8))
					for _, m := range []int{acked, acked + 1} {
						if m < len(states) && string(val) == string(freshValue(key, states[m][key])) {
							got[key] = states[m][key]
						}
					}
					if got[key] == 0 {
						return fmt.Errorf("key %d: block %v (%d bytes) matches neither version %d nor the one in flight: torn or stale payload",
							key, b, n, states[acked][key])
					}
				}
				match := false
				for _, m := range []int{acked, acked + 1} {
					match = match || (m < len(states) && got == states[m])
				}
				if !match {
					return fmt.Errorf("key versions %v match neither %d nor %d acked units", got, acked, acked+1)
				}

				// The allocator's books. Small blocks: allocated == reachable,
				// exactly. A large block is allocated through the lane log
				// before its transaction commits and freed after, so a crash
				// may leave one allocated and unreachable (the garbage
				// collector's to find) — never reachable and free.
				if err := s.heap.Check(); err != nil {
					return err
				}
				live := allocatedSet(s.heap)
				for b := range reach {
					if !live[b] {
						return fmt.Errorf("reachable block %v is free (double allocation ahead)", b)
					}
				}
				for b := range live {
					if !reach[b] && s.heap.IsSmall(b) {
						return fmt.Errorf("small block %v allocated but unreachable: leak", b)
					}
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

	// A large value is some seventy line flushes, so the full sweep is
	// thousands of replays per mode: nightly CI runs it
	// (CRASHPOINT_EXHAUSTIVE=1); everywhere else a bisection sample does.
	budget := 64
	if testing.Short() {
		budget = 32
	}
	rep, err := crashpoint.Explore(workload, crashpoint.Options{
		Schedule: crashpoint.TestSchedule(true, budget),
		Policies: append(crashpoint.DefaultPolicies(),
			crashpoint.NamedPolicy{Name: "words-only", New: func() scm.CrashPolicy { return wordsOnly{} }}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		for _, f := range rep.Failures {
			t.Errorf("%v", f)
		}
		t.Fatalf("fresh-fill oracle failed at %d of %d crash points (%s)", len(rep.Failures), rep.Points, rep)
	}
	t.Logf("freshfill/%s: %s", mode.name, rep)
}
