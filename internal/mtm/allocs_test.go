//go:build !race

package mtm

import (
	"sync"
	"testing"
)

// TestGroupCommitAllocs pins what a group-committed Atomic costs the Go
// heap once warm: nothing. Epochs come from the committer's free list, a
// member parks on its thread's own wake channel, and the leader's
// gathering window reuses one timer and one seal signal — so neither a
// solitary committer nor several concurrent ones allocate per commit.
func TestGroupCommitAllocs(t *testing.T) {
	t.Run("one committer", func(t *testing.T) {
		e := newEnv(t, Config{GroupCommit: true})
		defer e.tm.Close()
		th, err := e.tm.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		defer th.Close()
		n := uint64(0)
		store := func(tx *Tx) error {
			n++
			tx.StoreU64(e.data, n)
			return nil
		}
		commit := func() {
			if err := th.Atomic(store); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			commit()
		}
		if allocs := testing.AllocsPerRun(200, commit); allocs != 0 {
			t.Errorf("group-committed Atomic allocates %v times per call, want 0", allocs)
		}
		if got := e.mem.LoadU64(e.data); got != n {
			t.Fatalf("word = %d, want %d", got, n)
		}
	})

	t.Run("4 committers", func(t *testing.T) {
		const committers = 4
		e := newEnv(t, Config{GroupCommit: true})
		defer e.tm.Close()
		// Long-lived committer goroutines, each on its own thread and
		// word, released one round at a time: a round is one Atomic per
		// committer, and its coordination (channels, a WaitGroup)
		// allocates nothing of its own.
		var (
			start [committers]chan struct{}
			done  sync.WaitGroup
			exit  sync.WaitGroup
			errs  [committers]error
			vals  [committers]uint64
		)
		for g := range start {
			th, err := e.tm.NewThread()
			if err != nil {
				t.Fatal(err)
			}
			start[g] = make(chan struct{}, 1)
			exit.Add(1)
			go func(g int, th *Thread) {
				defer exit.Done()
				defer th.Close()
				addr := e.data.Add(int64(g) * 64)
				store := func(tx *Tx) error {
					tx.StoreU64(addr, vals[g]+1)
					return nil
				}
				for range start[g] {
					if err := th.Atomic(store); err != nil && errs[g] == nil {
						errs[g] = err
					}
					vals[g]++
					done.Done()
				}
			}(g, th)
		}
		round := func() {
			done.Add(committers)
			for g := range start {
				start[g] <- struct{}{}
			}
			done.Wait()
		}
		for i := 0; i < 16; i++ {
			round()
		}
		allocs := testing.AllocsPerRun(200, round)
		for g := range start {
			close(start[g])
		}
		exit.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("committer %d: %v", g, err)
			}
			if got := e.mem.LoadU64(e.data.Add(int64(g) * 64)); got != vals[g] {
				t.Fatalf("committer %d: word = %d, want %d", g, got, vals[g])
			}
		}
		if allocs != 0 {
			t.Errorf("a round of %d concurrent group-committed Atomics allocates %v times, want 0", committers, allocs)
		}
	})
}
