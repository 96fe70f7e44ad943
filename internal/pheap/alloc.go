package pheap

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/pmem"
	"repro/internal/rawl"
	"repro/internal/telemetry"
)

// Heap activity metrics, aggregated over every heap in the process.
var (
	telAllocs = telemetry.NewCounter("pheap_allocs_total",
		"persistent allocations (pmalloc)")
	telAllocBytes = telemetry.NewCounter("pheap_alloc_bytes_total",
		"bytes requested from the persistent heap")
	telFrees = telemetry.NewCounter("pheap_frees_total",
		"persistent frees (pfree)")
	telReservations = telemetry.NewCounter("pheap_tx_reservations_total",
		"small blocks reserved volatile-only inside a transaction (published by its commit record, no lane log)")
	telLaneAppends = telemetry.NewCounter("pheap_lane_log_appends_total",
		"allocator operations that paid the lane redo log (calls outside a transaction, large objects)")
)

// Redo record opcodes. Each record starts with the global sequence number,
// then the opcode, then operands; replay applies records across all lane
// logs in sequence order.
const (
	opSmallAlloc = 1 // sb, bit, ptrAddr, blockAddr
	opSmallFree  = 2 // sb, bit, ptrAddr
	opLargeAlloc = 3 // chunkOff, oldSize, takenSize, ptrAddr
	opLargeFree  = 4 // chunkOff, ptrAddr
)

// ErrOutOfMemory reports that the heap cannot satisfy an allocation.
var ErrOutOfMemory = errors.New("pheap: out of persistent memory")

// ErrDoubleFree reports a pfree of memory that is not allocated.
var ErrDoubleFree = errors.New("pheap: double free")

var allocLaneCounter atomic.Uint64

// Allocator is a per-goroutine handle to the heap. Each allocator is bound
// to a lane (its redo log plus its active superblocks); allocators on
// different lanes allocate mostly without contending.
type Allocator struct {
	h    *Heap
	lane *lane
	idx  int8
}

// NewAllocator returns an allocator handle bound to the next lane,
// round-robin. Handles are cheap; create one per worker goroutine.
func (h *Heap) NewAllocator() *Allocator {
	i := int(allocLaneCounter.Add(1)-1) % h.numLanes
	return &Allocator{h: h, lane: h.lanes[i], idx: int8(i)}
}

// PMalloc allocates size bytes of persistent memory and durably stores the
// block's address through ptr, a persistent pointer — the paper's
// leak-avoidance contract: "the pmalloc call takes a persistent pointer as
// an argument to ensure that memory is not leaked if the system fails just
// after an allocation." Returns the block address.
func (a *Allocator) PMalloc(size int64, ptr pmem.Addr) (pmem.Addr, error) {
	if size <= 0 {
		return pmem.Nil, fmt.Errorf("pheap: pmalloc of %d bytes", size)
	}
	if !ptr.IsPersistent() {
		return pmem.Nil, fmt.Errorf("pheap: pmalloc destination %v is not persistent", ptr)
	}
	sp := telemetry.SpanBegin(telemetry.PhaseAlloc, uint64(a.idx), 0)
	defer sp.End()
	block, err := a.smallOrLargeAlloc(size, ptr)
	if err == nil {
		telAllocs.Inc()
		telAllocBytes.Add(uint64(size))
		if telemetry.TraceEnabled() {
			telemetry.Emit(telemetry.EvAlloc, uint64(a.idx), uint64(block), uint64(size))
		}
	}
	return block, err
}

func (a *Allocator) smallOrLargeAlloc(size int64, ptr pmem.Addr) (pmem.Addr, error) {
	if size > MaxSmall {
		return a.largeAlloc(size, ptr)
	}
	return a.smallAlloc(size, ptr)
}

// PFree deallocates the block pointed to by the persistent pointer at ptr
// and durably nullifies the pointer, "to ensure that the persistent
// pointer does not continue to point to the deallocated chunk of memory if
// the system fails just after a deallocation" (§4.3).
func (a *Allocator) PFree(ptr pmem.Addr) error {
	if !ptr.IsPersistent() {
		return fmt.Errorf("pheap: pfree of non-persistent pointer %v", ptr)
	}
	sp := telemetry.SpanBegin(telemetry.PhaseFree, uint64(a.idx), 0)
	defer sp.End()
	a.lane.mu.Lock()
	defer a.lane.mu.Unlock()
	return a.pfreeLocked(ptr)
}

// pfreeLocked is PFree with the lane lock held.
func (a *Allocator) pfreeLocked(ptr pmem.Addr) error {
	block := pmem.Addr(a.lane.mem.LoadU64(ptr))
	if block == pmem.Nil {
		return errors.New("pheap: pfree of nil pointer")
	}
	h := a.h
	var err error
	switch {
	case h.IsSmall(block):
		err = a.smallFree(block, ptr)
	case block >= h.largeAt.Add(chunkHdr) && block < h.largeAt.Add(h.largeSz):
		err = a.largeFree(block, ptr)
	default:
		return fmt.Errorf("pheap: pfree of foreign address %v", block)
	}
	if err == nil {
		telFrees.Inc()
		if telemetry.TraceEnabled() {
			telemetry.Emit(telemetry.EvFree, uint64(a.idx), uint64(block), 0)
		}
	}
	return err
}

// UsableSize reports the capacity of the block at addr (which must be a
// live allocation).
func (h *Heap) UsableSize(addr pmem.Addr) (int64, error) {
	if h.IsSmall(addr) {
		sb := int32(addr.Sub(h.sbData) / SuperblockSize)
		st := &h.sbState[sb]
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.class < 0 {
			return 0, errors.New("pheap: address in unassigned superblock")
		}
		return classSize(int(st.class)), nil
	}
	if addr >= h.largeAt.Add(chunkHdr) && addr < h.largeAt.Add(h.largeSz) {
		h.largeMu.Lock()
		defer h.largeMu.Unlock()
		hdr := h.largeMem.LoadU64(addr.Add(-chunkHdr))
		size, inUse := unpackChunk(hdr)
		if !inUse {
			return 0, errors.New("pheap: address not allocated")
		}
		return size - chunkHdr, nil
	}
	return 0, fmt.Errorf("pheap: foreign address %v", addr)
}

// claimBlock finds a free block of class c on the allocator's lane — in
// the lane's active superblock, else in a partial or free superblock it
// adopts — and returns the superblock and bit index with st.mu held. The
// caller holds the lane lock and marks the bit.
func (a *Allocator) claimBlock(c int) (sb int32, st *sbState, bit int, err error) {
	h := a.h
	for {
		sb = a.lane.active[c]
		if sb >= 0 {
			st = &h.sbState[sb]
			st.mu.Lock()
			if st.free > 0 {
				break
			}
			// Exhausted: drop ownership and find another.
			st.owner = -1
			st.mu.Unlock()
			a.lane.active[c] = -1
			continue
		}
		var ok bool
		sb, ok = h.adoptSB(c, a.idx)
		if !ok {
			return 0, nil, 0, ErrOutOfMemory
		}
		a.lane.active[c] = sb
	}
	return sb, st, st.firstFree(int(SuperblockSize / classSize(c))), nil
}

// firstFree returns the lowest clear bit of the volatile bitmap, which
// counts open reservations and not-yet-released frees as taken. Caller
// holds st.mu and has checked st.free > 0.
func (st *sbState) firstFree(blocks int) int {
	for w := 0; w*64 < blocks; w++ {
		if v := st.bitmap[w]; v != ^uint64(0) {
			if b := w*64 + bits.TrailingZeros64(^v); b < blocks {
				return b
			}
		}
	}
	// free count said otherwise; corrupted volatile state.
	panic("pheap: free count and bitmap disagree")
}

// bitmapWord is the persistent address of word w of sb's bitmap.
func (h *Heap) bitmapWord(sb int32, w int) pmem.Addr {
	return h.sbMetaAddr(sb).Add(16 + int64(w)*8)
}

// rmwBits sets or clears mask in one persistent bitmap word with a
// write-through store. The persistent word is read and rewritten, never
// overwritten from the volatile copy: that one also holds uncommitted
// reservations (which must not persist) and committed frees not yet
// released (which must not resurrect). Caller holds the superblock's lock
// until mem is fenced.
func rmwBits(mem pmem.Memory, word pmem.Addr, mask uint64, set bool) {
	v := mem.LoadU64(word)
	if set {
		v |= mask
	} else {
		v &^= mask
	}
	mem.WTStoreU64(word, v)
}

func (a *Allocator) smallAlloc(size int64, ptr pmem.Addr) (pmem.Addr, error) {
	h := a.h
	c := classFor(size)
	a.lane.mu.Lock()
	defer a.lane.mu.Unlock()
	sb, st, bit, err := a.claimBlock(c)
	if err != nil {
		return pmem.Nil, err
	}
	defer st.mu.Unlock()
	block := h.sbDataAddr(sb).Add(int64(bit) * classSize(c))

	// Log the redo record, make it durable, then apply: one SCM write to
	// set the bitmap bit, one to store the destination pointer.
	seq := h.seq.Add(1)
	a.appendLog(telemetry.PhaseAlloc, []uint64{seq, opSmallAlloc, uint64(sb), uint64(bit), uint64(ptr), uint64(block)})
	w, mask := bit/64, uint64(1)<<(bit%64)
	rmwBits(a.lane.mem, h.bitmapWord(sb, w), mask, true)
	a.lane.mem.WTStoreU64(ptr, uint64(block))
	a.retire(telemetry.PhaseAlloc)

	st.bitmap[w] |= mask
	st.free--
	return block, nil
}

// smallBit locates the live small block at addr: its superblock and bit
// index. It fails on an address that is not the start of an allocated
// block of the superblock's class. Caller holds the superblock's lock.
func (h *Heap) smallBit(block pmem.Addr) (sb int32, bit int, err error) {
	sb = int32(block.Sub(h.sbData) / SuperblockSize)
	st := &h.sbState[sb]
	if st.class < 0 {
		return 0, 0, fmt.Errorf("pheap: pfree of %v in unassigned superblock", block)
	}
	bs := classSize(int(st.class))
	off := block.Sub(h.sbDataAddr(sb))
	if off%bs != 0 {
		return 0, 0, fmt.Errorf("pheap: pfree of misaligned address %v", block)
	}
	bit = int(off / bs)
	if st.bitmap[bit/64]&(1<<(bit%64)) == 0 {
		return 0, 0, ErrDoubleFree
	}
	return sb, bit, nil
}

// IsSmall reports whether addr lies in the superblock data area, i.e.
// whether a transaction's free of it can ride the commit record (FreeOp)
// instead of the lane log.
func (h *Heap) IsSmall(addr pmem.Addr) bool {
	return addr >= h.sbData && addr < h.sbData.Add(h.sbCount*SuperblockSize)
}

func (a *Allocator) smallFree(block, ptr pmem.Addr) error {
	h := a.h
	st := &h.sbState[block.Sub(h.sbData)/SuperblockSize]
	st.mu.Lock()
	sb, bit, err := h.smallBit(block)
	if err != nil {
		st.mu.Unlock()
		return err
	}

	seq := h.seq.Add(1)
	a.appendLog(telemetry.PhaseFree, []uint64{seq, opSmallFree, uint64(sb), uint64(bit), uint64(ptr)})
	w, mask := bit/64, uint64(1)<<(bit%64)
	rmwBits(a.lane.mem, h.bitmapWord(sb, w), mask, false)
	a.lane.mem.WTStoreU64(ptr, 0)
	// Retire before the bit is published as free (see smallAlloc).
	a.retire(telemetry.PhaseFree)

	h.unmark(sb, st, w, mask)
	return nil
}

// unmark clears a block's volatile bit, making it allocatable again, and
// publishes the superblock on the availability lists when it just stopped
// being full or became empty. Called with st.mu held; releases it (the
// lists nest outside: sbMu before st.mu).
func (h *Heap) unmark(sb int32, st *sbState, w int, mask uint64) {
	st.bitmap[w] &^= mask
	st.free++
	wasFull := st.free == 1
	class := int(st.class)
	becameEmpty := int64(st.free) == SuperblockSize/classSize(class) && st.owner == -1
	st.mu.Unlock()

	if becameEmpty || wasFull {
		h.sbMu.Lock()
		if becameEmpty {
			h.freeSBs = append(h.freeSBs, sb)
		} else {
			h.partial[class] = append(h.partial[class], sb)
		}
		h.sbMu.Unlock()
	}
}

// adoptSB finds a superblock for class c and lane: a partially-used one of
// the same class, else a fully-free one (assigning its class durably).
func (h *Heap) adoptSB(c int, laneIdx int8) (int32, bool) {
	h.sbMu.Lock()
	defer h.sbMu.Unlock()

	lst := h.partial[c]
	for len(lst) > 0 {
		sb := lst[len(lst)-1]
		lst = lst[:len(lst)-1]
		st := &h.sbState[sb]
		st.mu.Lock()
		if st.owner == -1 && int(st.class) == c && st.free > 0 {
			st.owner = laneIdx
			st.mu.Unlock()
			h.partial[c] = lst
			return sb, true
		}
		st.mu.Unlock() // stale entry: skip
	}
	h.partial[c] = lst

	for len(h.freeSBs) > 0 {
		sb := h.freeSBs[len(h.freeSBs)-1]
		h.freeSBs = h.freeSBs[:len(h.freeSBs)-1]
		st := &h.sbState[sb]
		st.mu.Lock()
		empty := st.class < 0 || int64(st.free) == SuperblockSize/classSize(int(st.class))
		if st.owner == -1 && empty {
			bs := classSize(c)
			// Durably assign the class. The persistent bitmap is zeroed
			// first: a torn shadow adoption (shadow.go) can leave stray
			// bits in a superblock whose class word never became durable,
			// and those bits must not survive into the new class.
			meta := h.sbMetaAddr(sb)
			for w := 0; w < bitmapWords; w++ {
				h.mem.WTStoreU64(meta.Add(16+int64(w)*8), 0)
			}
			h.mem.WTStoreU64(meta, uint64(bs))
			h.mem.Fence()
			telemetry.CountPhaseFence(telemetry.PhaseAlloc)
			st.class = int8(c)
			st.free = int32(SuperblockSize / bs)
			st.owner = laneIdx
			for i := range st.bitmap {
				st.bitmap[i] = 0
			}
			st.mu.Unlock()
			return sb, true
		}
		st.mu.Unlock()
	}
	return 0, false
}

// appendLog appends a redo record to the lane log, truncating first if the
// log is full (every record already applied is safe to drop), and makes
// it durable with the tornbit log's single fence. The lane log's ordering
// points are charged to phase (PhaseAlloc or PhaseFree).
func (a *Allocator) appendLog(phase telemetry.Phase, rec []uint64) {
	if _, err := a.lane.log.Append(rec); err != nil {
		if err != rawl.ErrLogFull {
			panic(fmt.Sprintf("pheap: log append: %v", err))
		}
		a.lane.log.TruncateAll()
		telemetry.CountPhaseFence(phase)
		if _, err := a.lane.log.Append(rec); err != nil {
			panic(fmt.Sprintf("pheap: log append after truncate: %v", err))
		}
	}
	a.lane.log.Flush()
	telemetry.CountPhaseFence(phase)
	telLaneAppends.Inc()
}

// retire fences the applied small-object operation and truncates its
// record. A record left in an idle lane's log would be replayed at the
// next Open over state that other lanes have since advanced (and
// truncated), un-doing their applied operations.
func (a *Allocator) retire(phase telemetry.Phase) {
	a.lane.mem.Fence()
	telemetry.CountPhaseFence(phase)
	a.lane.log.TruncateAll()
	telemetry.CountPhaseFence(phase)
}

// replay applies one redo record during Open. Each lane log holds at most
// the one record whose application may have been cut short by a crash
// (records are retired as soon as their effect is fenced), so replay
// re-applies in-flight operations only; re-applying an operation whose
// effect already reached SCM is idempotent.
func (h *Heap) replay(rec []uint64) error {
	if len(rec) < 2 {
		return errors.New("pheap: short redo record")
	}
	switch rec[1] {
	case opSmallAlloc:
		if len(rec) != 6 {
			return errors.New("pheap: bad smallAlloc record")
		}
		sb, bit, ptr, block := int32(rec[2]), int(rec[3]), pmem.Addr(rec[4]), rec[5]
		if sb < 0 || int64(sb) >= h.sbCount || bit < 0 || bit >= maxBlocksPer {
			return errors.New("pheap: smallAlloc record out of range")
		}
		w, mask := bit/64, uint64(1)<<(bit%64)
		addr := h.sbMetaAddr(sb).Add(16 + int64(w)*8)
		h.mem.WTStoreU64(addr, h.mem.LoadU64(addr)|mask)
		h.mem.WTStoreU64(ptr, block)
		h.mem.Fence()
	case opSmallFree:
		if len(rec) != 5 {
			return errors.New("pheap: bad smallFree record")
		}
		sb, bit, ptr := int32(rec[2]), int(rec[3]), pmem.Addr(rec[4])
		if sb < 0 || int64(sb) >= h.sbCount || bit < 0 || bit >= maxBlocksPer {
			return errors.New("pheap: smallFree record out of range")
		}
		w, mask := bit/64, uint64(1)<<(bit%64)
		addr := h.sbMetaAddr(sb).Add(16 + int64(w)*8)
		h.mem.WTStoreU64(addr, h.mem.LoadU64(addr)&^mask)
		h.mem.WTStoreU64(ptr, 0)
		h.mem.Fence()
	case opLargeAlloc:
		if len(rec) != 6 {
			return errors.New("pheap: bad largeAlloc record")
		}
		off, oldSize, taken, ptr := int64(rec[2]), int64(rec[3]), int64(rec[4]), pmem.Addr(rec[5])
		if off < 0 || off+oldSize > h.largeSz || taken > oldSize {
			return errors.New("pheap: largeAlloc record out of range")
		}
		if taken < oldSize {
			h.mem.WTStoreU64(h.largeAt.Add(off+taken), packChunk(oldSize-taken, false))
		}
		h.mem.WTStoreU64(h.largeAt.Add(off), packChunk(taken, true))
		h.mem.WTStoreU64(ptr, uint64(h.largeAt.Add(off+chunkHdr)))
		h.mem.Fence()
	case opLargeFree:
		if len(rec) != 4 {
			return errors.New("pheap: bad largeFree record")
		}
		off, ptr := int64(rec[2]), pmem.Addr(rec[3])
		if off < 0 || off >= h.largeSz {
			return errors.New("pheap: largeFree record out of range")
		}
		size, _ := unpackChunk(h.mem.LoadU64(h.largeAt.Add(off)))
		h.mem.WTStoreU64(h.largeAt.Add(off), packChunk(size, false))
		h.mem.WTStoreU64(ptr, 0)
		h.mem.Fence()
	default:
		return fmt.Errorf("pheap: unknown redo opcode %d", rec[1])
	}
	return nil
}
