package mtm

import (
	"testing"

	"repro/internal/scm"
	"repro/internal/telemetry"
)

func TestUndoCommitDurable(t *testing.T) {
	e := newEnv(t, Config{CommitMode: "undo"})
	th, err := e.tm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Atomic(func(tx *Tx) error {
		tx.StoreU64(e.data, 42)
		tx.StoreU64(e.data.Add(8), 43)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Committed in-place data survives the worst crash: the lines were
	// flushed before the commit marker's fence.
	e.dev.Crash(scm.DropAll{})
	if got := e.mem.LoadU64(e.data); got != 42 {
		t.Fatalf("word0 = %d", got)
	}
	if got := e.mem.LoadU64(e.data.Add(8)); got != 43 {
		t.Fatalf("word1 = %d", got)
	}
}

// TestUndoCommitRecovery reopens the stack after a crash and checks that
// committed undo transactions stay applied: their markers render the
// batch records inert at replay.
func TestUndoCommitRecovery(t *testing.T) {
	cfg := Config{CommitMode: "undo"}
	e := newEnv(t, cfg)
	th, _ := e.tm.NewThread()
	for i := uint64(1); i <= 5; i++ {
		if err := th.Atomic(func(tx *Tx) error {
			tx.StoreU64(e.data, i)
			tx.StoreU64(e.data.Add(8*int64(i)), i*100)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.reopen(t, scm.DropAll{}, cfg)
	if got := e.mem.LoadU64(e.data); got != 5 {
		t.Fatalf("after recovery word0 = %d, want 5", got)
	}
	for i := int64(1); i <= 5; i++ {
		if got := e.mem.LoadU64(e.data.Add(8 * i)); got != uint64(i)*100 {
			t.Fatalf("after recovery word%d = %d", i, got)
		}
	}
	if undone := e.tm.Recovery().Undone; undone != 0 {
		t.Fatalf("recovery rolled back %d committed transactions", undone)
	}
}

// TestUndoAbortRollsBack checks that a user abort in undo mode leaves no
// trace: writes are still buffered until commit, so nothing reaches
// memory.
func TestUndoAbortRollsBack(t *testing.T) {
	e := newEnv(t, Config{CommitMode: "undo"})
	th, _ := e.tm.NewThread()
	boom := thErr{}
	err := th.Atomic(func(tx *Tx) error {
		tx.StoreU64(e.data, 99)
		return boom
	})
	if err != boom {
		t.Fatalf("err = %v", err)
	}
	if got := e.mem.LoadU64(e.data); got != 0 {
		t.Fatalf("aborted write visible: %d", got)
	}
}

type thErr struct{}

func (thErr) Error() string { return "boom" }

// TestHybridModeSplitsPaths checks the hybrid threshold: a write set at or
// under HybridUndoMax commits through the undo path, a larger one through
// redo.
func TestHybridModeSplitsPaths(t *testing.T) {
	e := newEnv(t, Config{CommitMode: "hybrid", HybridUndoMax: 4})
	th, _ := e.tm.NewThread()

	undoBefore, redoBefore := telUndoCommits.Value(), telRedoCommits.Value()
	if err := th.Atomic(func(tx *Tx) error {
		for i := int64(0); i < 3; i++ {
			tx.StoreU64(e.data.Add(8*i), uint64(i+1))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := telUndoCommits.Value() - undoBefore; got != 1 {
		t.Fatalf("small tx took undo path %d times, want 1", got)
	}

	if err := th.Atomic(func(tx *Tx) error {
		for i := int64(0); i < 20; i++ {
			tx.StoreU64(e.data.Add(8*i), uint64(100+i))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := telRedoCommits.Value() - redoBefore; got != 1 {
		t.Fatalf("large tx took redo path %d times, want 1", got)
	}
	for i := int64(0); i < 20; i++ {
		if got := e.mem.LoadU64(e.data.Add(8 * i)); got != uint64(100+i) {
			t.Fatalf("word%d = %d", i, got)
		}
	}
}

// TestUndoFewerFencesThanRedo is the head-to-head the mode exists for: a
// single-word commit through the undo path issues fewer device fences
// than through sync redo.
func TestUndoFencesBeatRedo(t *testing.T) {
	fences := func(cfg Config) uint64 {
		e := newEnv(t, cfg)
		th, _ := e.tm.NewThread()
		// Warm up allocator/log paths, then measure one commit.
		if err := th.Atomic(func(tx *Tx) error { tx.StoreU64(e.data, 1); return nil }); err != nil {
			t.Fatal(err)
		}
		before := e.dev.Snapshot().Fences
		if err := th.Atomic(func(tx *Tx) error { tx.StoreU64(e.data, 2); return nil }); err != nil {
			t.Fatal(err)
		}
		return e.dev.Snapshot().Fences - before
	}
	redo := fences(Config{})
	undo := fences(Config{CommitMode: "undo"})
	if undo >= redo {
		t.Fatalf("undo commit used %d fences, redo %d — undo must use fewer", undo, redo)
	}
}

// TestConfigRejectsUnsafeUndoCombos pins the fill-time validation that
// protects the undo path's recovery argument.
func TestConfigRejectsUnsafeUndoCombos(t *testing.T) {
	bad := []Config{
		{CommitMode: "undo", AsyncTruncation: true},
		{CommitMode: "hybrid", AsyncTruncation: true},
		{CommitMode: "undo", UndoLogging: true},
		{CommitMode: "undo", GroupCommit: true},
		{CommitMode: "nonsense"},
	}
	for i, cfg := range bad {
		if err := cfg.fill(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	good := Config{CommitMode: "hybrid", GroupCommit: true}
	if err := good.fill(); err != nil {
		t.Errorf("hybrid+group rejected: %v", err)
	}
}

// TestReadCacheCoherent checks the read-through cache against the lock
// versions: a View sees a cached value, a commit moves the word, and the
// next View must see the new value (the version tag invalidates the
// entry).
func TestReadCacheCoherent(t *testing.T) {
	e := newEnv(t, Config{ReadCacheWords: 1024})
	th, _ := e.tm.NewThread()
	if err := th.Atomic(func(tx *Tx) error { tx.StoreU64(e.data, 10); return nil }); err != nil {
		t.Fatal(err)
	}
	readWord := func() (v uint64) {
		if err := e.tm.View(func(r *ReadTx) error { v = r.LoadU64(e.data); return nil }); err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Two reads: the second is a cache hit when the pool reuses the
	// reader, and must still be correct.
	if got := readWord(); got != 10 {
		t.Fatalf("read = %d", got)
	}
	if got := readWord(); got != 10 {
		t.Fatalf("cached read = %d", got)
	}
	if err := th.Atomic(func(tx *Tx) error { tx.StoreU64(e.data, 11); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := readWord(); got != 11 {
		t.Fatalf("read after commit = %d, cache served a stale value", got)
	}

	// The writer's own transactional reads go through the cache too.
	var seen uint64
	if err := th.Atomic(func(tx *Tx) error { seen = tx.LoadU64(e.data); return nil }); err != nil {
		t.Fatal(err)
	}
	if seen != 11 {
		t.Fatalf("tx read = %d", seen)
	}
}

// TestReadTxPoolCapsRetainedReads pins the pool-retention cap: a reader
// whose read set grew past maxPooledReadCap is stripped on put, so one
// large scan cannot pin megabytes in the pool forever.
func TestReadTxPoolCapsRetainedReads(t *testing.T) {
	e := newEnv(t, Config{})
	small := &ReadTx{tm: e.tm, mem: e.tm.rt.NewMemory(),
		reads: make([]readEntry, 0, maxPooledReadCap)}
	e.tm.putReader(small)
	if small.reads == nil {
		t.Fatal("put dropped a read set within the cap")
	}
	big := &ReadTx{tm: e.tm, mem: e.tm.rt.NewMemory(),
		reads: make([]readEntry, 0, maxPooledReadCap+1)}
	e.tm.putReader(big)
	if big.reads != nil {
		t.Fatalf("put retained %d words of read-set capacity, cap is %d",
			cap(big.reads), maxPooledReadCap)
	}
}

// TestUndoPhaseFencesAttributed checks the per-mode fence attribution:
// undo commits count their two fences under undo_log/undo_apply, leaving
// the redo phases untouched.
func TestUndoPhaseFencesAttributed(t *testing.T) {
	e := newEnv(t, Config{CommitMode: "undo"})
	th, _ := e.tm.NewThread()
	logBefore := telemetry.PhaseFences(telemetry.PhaseUndoLog)
	applyBefore := telemetry.PhaseFences(telemetry.PhaseUndoApply)
	redoBefore := telemetry.PhaseFences(telemetry.PhaseLogFence)
	if err := th.Atomic(func(tx *Tx) error { tx.StoreU64(e.data, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := telemetry.PhaseFences(telemetry.PhaseUndoLog) - logBefore; got != 1 {
		t.Fatalf("undo_log fences = %d, want 1", got)
	}
	if got := telemetry.PhaseFences(telemetry.PhaseUndoApply) - applyBefore; got != 1 {
		t.Fatalf("undo_apply fences = %d, want 1", got)
	}
	if got := telemetry.PhaseFences(telemetry.PhaseLogFence) - redoBefore; got != 0 {
		t.Fatalf("log_fence fences = %d, want 0 in undo mode", got)
	}
}
