package pheap

import (
	"testing"

	"repro/internal/pmem"
	"repro/internal/scm"
	"repro/internal/telemetry"
)

// persistentWord reads word 0 of the persistent bitmap of the superblock
// holding block; volatileWord its volatile copy.
func (e *env) persistentWord(block pmem.Addr) uint64 {
	sb := int32(block.Sub(e.heap.sbData) / SuperblockSize)
	return e.mem.LoadU64(e.heap.bitmapWord(sb, 0))
}

func (e *env) volatileWord(block pmem.Addr) uint64 {
	return e.heap.sbState[block.Sub(e.heap.sbData)/SuperblockSize].bitmap[0]
}

// apply commits ops the way a transaction's write-back does.
func (e *env) apply(ops ...BitOp) {
	e.heap.ApplyBits(e.mem, ops, nil, e.mem.Fence)
}

// TestReserveIsVolatileOnly pins the reservation contract: Reserve and
// Aborted write nothing to SCM and fence nothing, the block is taken for
// other allocations meanwhile, and a crash forgets it.
func TestReserveIsVolatileOnly(t *testing.T) {
	e := newEnv(t, 1<<20, Config{Lanes: 1})
	a := e.heap.NewAllocator()
	// Adopt the class's superblock (a durable class assignment) up front.
	if _, err := a.PMalloc(64, e.ptr(0)); err != nil {
		t.Fatal(err)
	}
	before := e.dev.Snapshot()
	block, op, err := a.Reserve(64)
	if err != nil {
		t.Fatal(err)
	}
	other, err := a.PMalloc(64, e.ptr(1))
	if err != nil {
		t.Fatal(err)
	}
	if other == block {
		t.Fatalf("lane alloc returned reserved block %v", block)
	}
	lane := e.dev.Snapshot()
	e.heap.Aborted([]BitOp{op})
	after := e.dev.Snapshot()
	if after.Fences != lane.Fences || after.WTStores != lane.WTStores {
		t.Fatalf("Aborted touched SCM: %+v -> %+v", lane, after)
	}
	if got := lane.Fences - before.Fences; got != 3 {
		t.Fatalf("Reserve + lane PMalloc cost %d fences, want the lane log's 3", got)
	}
	again, _, err := a.Reserve(64)
	if err != nil {
		t.Fatal(err)
	}
	if again != block {
		t.Fatalf("aborted reservation %v not reused (got %v)", block, again)
	}
	// A crash forgets the open reservation: only the two lane blocks live.
	e.reopenHeap(t, scm.DropAll{})
	n := 0
	e.heap.ForEachAllocated(func(pmem.Addr, int64) bool { n++; return true })
	if n != 2 {
		t.Fatalf("%d blocks allocated after crash, want 2", n)
	}
}

// TestPersistentBitmapUpdatesAreRMW puts a lane allocation, a shadow
// allocation, an open transaction's reservation and a committed but not
// yet released free into one bitmap word, and checks that every path
// updates the persistent word from its persistent value: writing the
// volatile word back would persist the reservation (a leak on crash) or
// resurrect the committed free.
func TestPersistentBitmapUpdatesAreRMW(t *testing.T) {
	e := newEnv(t, 1<<20, Config{Lanes: 1})
	a := e.heap.NewAllocator()
	const size = 2048 // four blocks per superblock: bits 0..3 of word 0
	lane := func(i int) pmem.Addr {
		t.Helper()
		b, err := a.PMalloc(size, e.ptr(i))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := func(step string, block pmem.Addr, persistent, volatile uint64) {
		t.Helper()
		if got := e.persistentWord(block); got != persistent {
			t.Fatalf("%s: persistent word %04b, want %04b", step, got, persistent)
		}
		if got := e.volatileWord(block); got != volatile {
			t.Fatalf("%s: volatile word %04b, want %04b", step, got, volatile)
		}
	}

	blkA, blkB := lane(0), lane(1)
	blkC, resC, err := a.Reserve(size)
	if err != nil {
		t.Fatal(err)
	}
	blkD := lane(3)
	for _, b := range []pmem.Addr{blkB, blkC, blkD} {
		if b.Sub(blkA)/SuperblockSize != 0 {
			t.Fatalf("blocks %v and %v are in different superblocks", blkA, b)
		}
	}
	want("lane alloc beside a reservation", blkA, 0b1011, 0b1111)

	// The superblock is full: the next allocation makes the lane drop it,
	// and the free below puts it on the partial list for the shadow
	// allocator to adopt.
	lane(4)
	if err := a.PFree(e.ptr(0)); err != nil {
		t.Fatal(err)
	}
	want("lane free beside a reservation", blkA, 0b1010, 0b1110)

	var batch FlushBatch
	shadow, err := e.heap.PMallocShadow(size, &batch)
	if err != nil {
		t.Fatal(err)
	}
	if shadow != blkA {
		t.Fatalf("shadow alloc returned %v, want the freed block %v", shadow, blkA)
	}
	batch.Flush(e.mem)
	e.mem.Fence()
	want("shadow alloc beside a reservation", blkA, 0b1011, 0b1111)

	// A transaction frees B and commits: the persistent bit clears, the
	// volatile one stays until Committed.
	freeB, err := e.heap.FreeOp(blkB)
	if err != nil {
		t.Fatal(err)
	}
	e.apply(freeB)
	want("committed free", blkA, 0b1001, 0b1111)
	if err := a.PFree(e.ptr(3)); err != nil {
		t.Fatal(err)
	}
	want("lane free beside a committed free", blkA, 0b0001, 0b0111)

	if failed := e.heap.Committed([]BitOp{freeB}, 0); failed != 0 {
		t.Fatalf("Committed failed %d frees", failed)
	}
	e.heap.Aborted([]BitOp{resC})
	want("released", blkA, 0b0001, 0b0001)
	if err := e.heap.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayBitIsIdempotentAndOrdered replays a free and a later
// reallocation of one block the way mtm's recovery does, twice over, and
// checks the persistent and (after Rescan) volatile bitmaps.
func TestReplayBitIsIdempotentAndOrdered(t *testing.T) {
	e := newEnv(t, 1<<20, Config{Lanes: 1})
	a := e.heap.NewAllocator()
	block, err := a.PMalloc(64, e.ptr(0))
	if err != nil {
		t.Fatal(err)
	}
	free, err := e.heap.FreeOp(block)
	if err != nil {
		t.Fatal(err)
	}
	realloc := free.Inverse()
	for round := 0; round < 2; round++ {
		for _, op := range []BitOp{free, realloc} {
			if err := e.heap.ReplayBit(e.mem, op); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.mem.Fence()
	e.heap.Rescan()
	if p, v := e.persistentWord(block), e.volatileWord(block); p != 1 || v != 1 {
		t.Fatalf("after free+realloc replay: persistent %b volatile %b, want 1 1", p, v)
	}
	if err := e.heap.ReplayBit(e.mem, free); err != nil {
		t.Fatal(err)
	}
	e.mem.Fence()
	e.heap.Rescan()
	if p, v := e.persistentWord(block), e.volatileWord(block); p != 0 || v != 0 {
		t.Fatalf("after free replay: persistent %b volatile %b, want 0 0", p, v)
	}
	if got := e.heap.Stats().FreeSuperblocks; int64(got) != e.heap.sbCount {
		t.Fatalf("%d of %d superblocks free after the last block was freed", got, e.heap.sbCount)
	}

	// Hostile log bytes are refused, not applied.
	for _, bad := range []BitOp{
		{Word: e.heap.sbMeta | BitSet | BitClear, Mask: 1},       // no such kind
		{Word: e.heap.sbMeta | BitSet, Mask: 1},                  // the class word
		{Word: e.heap.sbData | BitSet, Mask: 1},                  // past the metadata
		{Word: e.heap.base.Add(-8) | BitClear, Mask: 1},          // before the heap
		{Word: e.heap.bitmapWord(0, 0) | 4, Mask: ^uint64(0)},    // unknown tag bit
		{Word: e.heap.bitmapWord(int32(e.heap.sbCount), 0) | 1},  // one past the last superblock
		{Word: e.heap.sbMetaAddr(1).Add(8) | BitClear, Mask: 42}, // reserved header word
	} {
		if err := e.heap.ReplayBit(e.mem, bad); err == nil {
			t.Fatalf("ReplayBit accepted %#x", uint64(bad.Word))
		}
	}
}

// TestLaneLogFencesAreAttributed: the lane log's ordering points are
// charged to the alloc and free phases, and only lane-log calls advance
// pheap_lane_log_appends_total.
func TestLaneLogFencesAreAttributed(t *testing.T) {
	e := newEnv(t, 1<<20, Config{Lanes: 1})
	a := e.heap.NewAllocator()
	if _, err := a.PMalloc(64, e.ptr(0)); err != nil { // adopt the superblock
		t.Fatal(err)
	}
	dev0 := e.dev.Snapshot().Fences
	alloc0, free0 := telemetry.PhaseFences(telemetry.PhaseAlloc), telemetry.PhaseFences(telemetry.PhaseFree)
	appends0, resv0 := telLaneAppends.Value(), telReservations.Value()
	if _, err := a.PMalloc(64, e.ptr(1)); err != nil {
		t.Fatal(err)
	}
	if err := a.PFree(e.ptr(1)); err != nil {
		t.Fatal(err)
	}
	_, op, err := a.Reserve(64)
	if err != nil {
		t.Fatal(err)
	}
	e.heap.Aborted([]BitOp{op})
	allocF := telemetry.PhaseFences(telemetry.PhaseAlloc) - alloc0
	freeF := telemetry.PhaseFences(telemetry.PhaseFree) - free0
	if dev := e.dev.Snapshot().Fences - dev0; allocF != 3 || freeF != 3 || dev != allocF+freeF {
		t.Fatalf("attributed %d alloc + %d free fences, device counted %d; want 3 + 3 = 6", allocF, freeF, dev)
	}
	if got := telLaneAppends.Value() - appends0; got != 2 {
		t.Fatalf("lane log appends = %d, want 2", got)
	}
	if got := telReservations.Value() - resv0; got != 1 {
		t.Fatalf("reservations = %d, want 1", got)
	}
}
