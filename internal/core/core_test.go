package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/mtm"
	"repro/internal/pmem"
	"repro/internal/scm"
)

func testPM(t *testing.T) *PM {
	t.Helper()
	pm, err := Open(Config{Dir: t.TempDir(), DeviceSize: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

func TestOpenBuildsWholeStack(t *testing.T) {
	pm := testPM(t)
	if pm.Device() == nil || pm.Runtime() == nil || pm.Heap() == nil || pm.TM() == nil {
		t.Fatal("incomplete stack")
	}
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapSizeDefaultsScaleWithDevice(t *testing.T) {
	// A small device must still open: the default heap shrinks to fit.
	pm, err := Open(Config{Dir: t.TempDir(), DeviceSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ptr, _, err := pm.Static("t.p", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pm.Allocator().PMalloc(4096, ptr); err != nil {
		t.Fatal(err)
	}
}

func TestAttachAfterCrashRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, DeviceSize: 128 << 20, AsyncTruncation: true}
	pm, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, _, err := pm.Static("t.words", 8*64)
	if err != nil {
		t.Fatal(err)
	}
	th, err := pm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 64; i++ {
		i := i
		if err := th.Atomic(func(tx *mtm.Tx) error {
			tx.StoreU64(addr.Add(i*8), uint64(i)+1000)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	pm.TM().StopTruncation()
	dev := pm.Device()
	dev.Crash(scm.DropAll{})
	if err := pm.Runtime().Close(); err != nil {
		t.Fatal(err)
	}

	pm2, err := Attach(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mem := pm2.Memory()
	for i := int64(0); i < 64; i++ {
		if got := mem.LoadU64(addr.Add(i * 8)); got != uint64(i)+1000 {
			t.Fatalf("word %d = %d after recovery", i, got)
		}
	}
}

func TestLogLifecycle(t *testing.T) {
	pm := testPM(t)
	if _, _, err := pm.OpenLog("t.nolog"); err == nil {
		t.Fatal("opening a missing log must fail")
	}
	log, err := pm.CreateLog("t.log", 512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pm.CreateLog("t.log", 512); err == nil {
		t.Fatal("double create must fail")
	}
	for i := uint64(0); i < 10; i++ {
		if _, err := log.Append([]uint64{i, i * 2}); err != nil {
			t.Fatal(err)
		}
	}
	log.Flush()
	pm.Device().Crash(scm.DropAll{})
	_, recs, err := pm.OpenLog("t.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 || recs[9][1] != 18 {
		t.Fatalf("recovered %d records", len(recs))
	}
}

func TestAtomicConvenienceRecyclesSlots(t *testing.T) {
	pm, err := Open(Config{Dir: t.TempDir(), DeviceSize: 64 << 20, Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := pm.Static("t.a", 8)
	if err != nil {
		t.Fatal(err)
	}
	// Each Atomic leases and releases a thread, so calls well beyond the
	// Threads bound must all succeed — slot use is per-call, not
	// cumulative.
	for i := 0; i < 20; i++ {
		if err := pm.Atomic(func(tx *mtm.Tx) error {
			tx.StoreU64(a, uint64(i))
			return nil
		}); err != nil {
			t.Fatalf("Atomic %d: %v", i, err)
		}
	}
	if got := pm.TM().LiveThreads(); got != 0 {
		t.Fatalf("live threads after Atomic calls = %d, want 0", got)
	}
}

// TestAtomicWaitsUpToLeaseTimeout: Threads bounds transactions in flight
// plus explicitly held threads, and LeaseTimeout how long Atomic queues
// for a slot when all of them are taken.
func TestAtomicWaitsUpToLeaseTimeout(t *testing.T) {
	pm, err := Open(Config{Dir: t.TempDir(), DeviceSize: 64 << 20, Threads: 2,
		LeaseTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	nop := func(*mtm.Tx) error { return nil }
	// A parked thread does not count against the bound: both slots can
	// still be taken explicitly.
	if err := pm.Atomic(nop); err != nil {
		t.Fatal(err)
	}
	t1, err := pm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := pm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	// Every slot held: Atomic must wait and time out.
	if err := pm.Atomic(nop); !errors.Is(err, mtm.ErrLeaseTimeout) {
		t.Fatalf("Atomic with every slot held: %v, want ErrLeaseTimeout", err)
	}
	// A concurrent release unblocks a waiting Atomic before its timeout.
	pm2, err := Open(Config{Dir: t.TempDir(), DeviceSize: 64 << 20, Threads: 1,
		LeaseTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := pm2.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		a1.Close()
	}()
	if err := pm2.Atomic(nop); err != nil {
		t.Fatalf("Atomic after concurrent release: %v", err)
	}
	for _, th := range []*mtm.Thread{t1, t2} {
		if err := th.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPMapAndPUnmap(t *testing.T) {
	pm := testPM(t)
	ptr, _, err := pm.Static("t.region", 8)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := pm.PMapAt(ptr, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	mem := pm.Memory()
	if got := pmem.Addr(mem.LoadU64(ptr)); got != addr {
		t.Fatalf("root = %v", got)
	}
	if err := pm.PUnmap(addr); err != nil {
		t.Fatal(err)
	}
	if err := pm.PUnmap(addr); err == nil {
		t.Fatal("double unmap must fail")
	}
}

func TestAtomicBatchSingleTransaction(t *testing.T) {
	pm := testPM(t)
	a, _, err := pm.Static("t.batch", 64)
	if err != nil {
		t.Fatal(err)
	}
	fns := make([]func(tx *mtm.Tx) error, 8)
	for i := range fns {
		i := i
		fns[i] = func(tx *mtm.Tx) error {
			tx.StoreU64(a.Add(int64(i)*8), uint64(i+1))
			return nil
		}
	}
	before := pm.TM().Snapshot().Commits
	if err := pm.AtomicBatch(fns); err != nil {
		t.Fatal(err)
	}
	if got := pm.TM().Snapshot().Commits - before; got != 1 {
		t.Fatalf("batch of 8 fns cost %d commits, want 1", got)
	}
	mem := pm.Memory()
	for i := int64(0); i < 8; i++ {
		if got := mem.LoadU64(a.Add(i * 8)); got != uint64(i+1) {
			t.Fatalf("word %d = %d, want %d", i, got, i+1)
		}
	}
	// An empty batch is a no-op, not an error.
	if err := pm.AtomicBatch(nil); err != nil {
		t.Fatal(err)
	}
	// A failing fn aborts the whole batch and releases the lease.
	boom := errors.New("boom")
	fns[3] = func(tx *mtm.Tx) error {
		tx.StoreU64(a, 999)
		return boom
	}
	if err := pm.AtomicBatch(fns); !errors.Is(err, boom) {
		t.Fatalf("failing batch: %v, want boom", err)
	}
	if got := mem.LoadU64(a); got != 1 {
		t.Fatalf("aborted batch leaked word 0 = %d, want 1", got)
	}
	if got := pm.TM().LiveThreads(); got != 0 {
		t.Fatalf("live threads after AtomicBatch calls = %d, want 0", got)
	}
}
