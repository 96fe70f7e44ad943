package pheap

import (
	"fmt"
	"sync"

	"repro/internal/pmem"
	"repro/internal/telemetry"
)

// Shadow allocation: the out-of-band allocation path behind the MOD
// (minimally-ordered durable structures) backend in internal/pds/mod.
//
// A normal PMalloc is individually crash-atomic: it logs a redo record,
// write-through-stores the bitmap bit and the destination pointer, and
// fences — at least two ordering points per allocation. Shadow-updated
// structures do not need any of that, because a freshly allocated shadow
// block is unreachable from persistent state until its structure's root
// pointer swings over it. If the system dies first, the worst outcome is
// a leaked block, and leaks are exactly what the deferred-reclamation
// sweep (internal/pgc driven by the MOD runtime) reclaims.
//
// PMallocShadow therefore skips the log, the fence and the destination
// pointer entirely. It sets the superblock bitmap bit with a plain
// cacheable store and records the bitmap word (and, when a fresh
// superblock is adopted, its class word) in the caller's FlushBatch; the
// caller flushes the batch and issues ONE fence for its whole mutation at
// commit time. Durability ordering is the caller's: nothing here is
// ordered, which is the point.
//
// Crash matrix for a shadow allocation whose commit fence never ran:
//
//   - bit durable, structure root not swung: the block is leaked and the
//     sweep frees it (the bit is real, the block unreachable);
//   - bit not durable: the allocation never happened;
//   - fresh superblock's class word durable but bits not (or vice versa):
//     scavenging either sees an empty classed superblock or an unassigned
//     one with stray bits. The stray-bit case is repaired at the next
//     adoption: both adoption paths persistently zero the bitmap before
//     (re)assigning the class, so stale bits can never masquerade as live
//     blocks of the new class.

var telShadowAllocs = telemetry.NewCounter("pheap_shadow_allocs_total",
	"out-of-band shadow allocations (no log record, no fence)")

// shadowOwner marks a superblock as owned by the heap-wide shadow
// allocator, keeping it out of every lane's adoption path while shadow
// stores to its metadata may still be unfenced.
const shadowOwner int8 = 127

// FlushBatch accumulates the address ranges a shadow mutation has written
// with cacheable stores — new nodes, bitmap words, class words — so they
// can all be flushed back-to-back before the mutation's single commit
// fence.
type FlushBatch struct {
	spans []flushSpan
	bytes int64
}

type flushSpan struct {
	addr pmem.Addr
	n    int64
}

// Add records [addr, addr+n) for flushing.
func (b *FlushBatch) Add(addr pmem.Addr, n int64) {
	if n <= 0 {
		return
	}
	b.spans = append(b.spans, flushSpan{addr: addr, n: n})
	b.bytes += n
}

// Bytes reports the total span bytes added since the last Reset — the
// shadow write volume of one mutation.
func (b *FlushBatch) Bytes() int64 { return b.bytes }

// Flush writes every recorded span back to SCM. It issues no fence.
func (b *FlushBatch) Flush(mem pmem.Memory) {
	for _, s := range b.spans {
		mem.FlushRange(s.addr, s.n)
	}
}

// Reset clears the batch for reuse, keeping its backing storage.
func (b *FlushBatch) Reset() {
	b.spans = b.spans[:0]
	b.bytes = 0
}

// shadowState is the heap-wide shadow allocator: one active superblock
// per class, guarded by its own lock (shadow allocations serialize
// against each other, never against lane allocations).
type shadowState struct {
	mu     sync.Mutex
	mem    pmem.Memory
	active [numClasses]int32
}

// PMallocShadow allocates size bytes (size classes up to MaxSmall only)
// without a redo record, fence, or destination pointer. The new block's
// bitmap bit is set with a cacheable store, and every metadata word
// written is recorded in batch for the caller's pre-fence flush. The
// block must be made reachable by the caller's own single-fence commit
// protocol, or it is leaked until the next reclamation sweep.
func (h *Heap) PMallocShadow(size int64, batch *FlushBatch) (pmem.Addr, error) {
	if size <= 0 {
		return pmem.Nil, fmt.Errorf("pheap: shadow alloc of %d bytes", size)
	}
	if size > MaxSmall {
		return pmem.Nil, fmt.Errorf("pheap: shadow alloc of %d bytes exceeds MaxSmall (%d)", size, MaxSmall)
	}
	c := classFor(size)
	s := &h.shadow
	s.mu.Lock()
	defer s.mu.Unlock()

	// Find a superblock with a free block, mirroring smallAlloc's loop.
	// Returns with st.mu held.
	var sb int32
	var st *sbState
	for {
		sb = s.active[c]
		if sb >= 0 {
			st = &h.sbState[sb]
			st.mu.Lock()
			if st.free > 0 {
				break
			}
			st.owner = -1
			st.mu.Unlock()
			s.active[c] = -1
			continue
		}
		var ok bool
		sb, ok = h.adoptShadow(c, batch)
		if !ok {
			return pmem.Nil, ErrOutOfMemory
		}
		s.active[c] = sb
	}
	defer st.mu.Unlock()

	bs := classSize(c)
	bit := st.firstFree(int(SuperblockSize / bs))
	block := h.sbDataAddr(sb).Add(int64(bit) * bs)

	// The one persistent effect: set the bitmap bit, cacheable, and queue
	// its word for the commit-time flush. No log, no fence, no pointer.
	// The stored value derives from the persistent word, not the volatile
	// copy (see rmwBits).
	w, mask := bit/64, uint64(1)<<(bit%64)
	wordAddr := h.bitmapWord(sb, w)
	s.mem.StoreU64(wordAddr, s.mem.LoadU64(wordAddr)|mask)
	batch.Add(wordAddr, 8)

	st.bitmap[w] |= mask
	st.free--
	telShadowAllocs.Inc()
	telAllocBytes.Add(uint64(size))
	return block, nil
}

// adoptShadow finds a superblock for the shadow allocator: a partial one
// of the same class (its class word is already durable), else a fully
// free one. Assigning a fresh superblock's class uses cacheable stores
// recorded in batch — durability rides the caller's commit fence — and
// persistently zeroes the bitmap first, clearing any stray bits a torn
// earlier shadow adoption may have left behind.
func (h *Heap) adoptShadow(c int, batch *FlushBatch) (int32, bool) {
	h.sbMu.Lock()
	defer h.sbMu.Unlock()

	lst := h.partial[c]
	for len(lst) > 0 {
		sb := lst[len(lst)-1]
		lst = lst[:len(lst)-1]
		st := &h.sbState[sb]
		st.mu.Lock()
		if st.owner == -1 && int(st.class) == c && st.free > 0 {
			st.owner = shadowOwner
			st.mu.Unlock()
			h.partial[c] = lst
			return sb, true
		}
		st.mu.Unlock()
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
			meta := h.sbMetaAddr(sb)
			for w := 0; w < bitmapWords; w++ {
				h.shadow.mem.StoreU64(meta.Add(16+int64(w)*8), 0)
			}
			h.shadow.mem.StoreU64(meta, uint64(bs))
			batch.Add(meta, 16+bitmapWords*8)
			st.class = int8(c)
			st.free = int32(SuperblockSize / bs)
			st.owner = shadowOwner
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
