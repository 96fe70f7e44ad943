package pheap

import (
	"fmt"
	"sort"

	"repro/internal/pmem"
	"repro/internal/telemetry"
)

// The large-object allocator covers requests above MaxSmall with a
// simplified dlmalloc design, per §4.3: "If the requested block is larger,
// Mnemosyne falls back to dlmalloc... Since we expect dlmalloc to be
// infrequently used, we have not modified it except to add logging to
// ensure allocations are atomic."
//
// Each chunk starts with one cache line whose first word packs
// size<<1|inUse, so every metadata mutation is a single atomic durable
// write. The free list is volatile, rebuilt by walking the chunk chain;
// adjacent free chunks coalesce lazily with a single idempotent header
// rewrite.

func packChunk(size int64, inUse bool) uint64 {
	v := uint64(size) << 1
	if inUse {
		v |= 1
	}
	return v
}

func unpackChunk(v uint64) (size int64, inUse bool) {
	return int64(v >> 1), v&1 != 0
}

func (a *Allocator) largeAlloc(size int64, ptr pmem.Addr) (pmem.Addr, error) {
	h := a.h
	need := (size + chunkHdr + 63) &^ 63
	// The lane lock serializes appends to the lane log against small
	// operations on the same lane; it nests outside largeMu, matching
	// PFree -> largeFree.
	a.lane.mu.Lock()
	defer a.lane.mu.Unlock()
	h.largeMu.Lock()
	defer h.largeMu.Unlock()

	ci := h.findLargeFit(need)
	if ci < 0 {
		// Coalesce and retry once.
		h.rebuildLargeIndex()
		if ci = h.findLargeFit(need); ci < 0 {
			return pmem.Nil, ErrOutOfMemory
		}
	}
	c := h.largeFree[ci]
	taken := need
	if c.size-need < 2*chunkHdr {
		taken = c.size // too small to split; take the whole chunk
	}

	seq := h.seq.Add(1)
	a.appendLog(telemetry.PhaseAlloc, []uint64{seq, opLargeAlloc, uint64(c.off), uint64(c.size), uint64(taken), uint64(ptr)})
	// Remainder header first, then the allocated header, then the
	// destination pointer; the chunk chain stays walkable at every
	// crash point, and the log makes the pointer update replayable.
	if taken < c.size {
		h.largeMem.WTStoreU64(h.largeAt.Add(c.off+taken), packChunk(c.size-taken, false))
	}
	h.largeMem.WTStoreU64(h.largeAt.Add(c.off), packChunk(taken, true))
	block := h.largeAt.Add(c.off + chunkHdr)
	h.largeMem.WTStoreU64(ptr, uint64(block))
	h.largeMem.Fence()
	telemetry.CountPhaseFence(telemetry.PhaseAlloc)
	// Retire the record now that its effect is durable, before the chunk
	// leaves the free index (see retire).
	a.lane.log.TruncateAll()
	telemetry.CountPhaseFence(telemetry.PhaseAlloc)

	if taken < c.size {
		h.largeFree[ci] = chunk{off: c.off + taken, size: c.size - taken}
	} else {
		h.largeFree = append(h.largeFree[:ci], h.largeFree[ci+1:]...)
	}
	return block, nil
}

// largeFree is called with the lane lock held (from PFree).
func (a *Allocator) largeFree(block, ptr pmem.Addr) error {
	h := a.h
	off := block.Sub(h.largeAt) - chunkHdr
	h.largeMu.Lock()
	defer h.largeMu.Unlock()

	size, inUse := unpackChunk(h.largeMem.LoadU64(h.largeAt.Add(off)))
	if !inUse {
		return ErrDoubleFree
	}
	if size <= 0 || off+size > h.largeSz {
		return fmt.Errorf("pheap: corrupt large chunk at %v", block)
	}

	seq := h.seq.Add(1)
	a.appendLog(telemetry.PhaseFree, []uint64{seq, opLargeFree, uint64(off), uint64(ptr)})
	h.largeMem.WTStoreU64(h.largeAt.Add(off), packChunk(size, false))
	h.largeMem.WTStoreU64(ptr, 0)
	h.largeMem.Fence()
	telemetry.CountPhaseFence(telemetry.PhaseFree)
	// Retire before the chunk is published as free (see retire).
	a.lane.log.TruncateAll()
	telemetry.CountPhaseFence(telemetry.PhaseFree)

	// Insert into the sorted free list and coalesce with neighbors.
	// Durable merges are single idempotent size rewrites.
	i := sort.Search(len(h.largeFree), func(i int) bool { return h.largeFree[i].off >= off })
	h.largeFree = append(h.largeFree, chunk{})
	copy(h.largeFree[i+1:], h.largeFree[i:])
	h.largeFree[i] = chunk{off: off, size: size}

	if i+1 < len(h.largeFree) && h.largeFree[i].off+h.largeFree[i].size == h.largeFree[i+1].off {
		merged := h.largeFree[i].size + h.largeFree[i+1].size
		h.largeMem.WTStoreU64(h.largeAt.Add(h.largeFree[i].off), packChunk(merged, false))
		h.largeFree[i].size = merged
		h.largeFree = append(h.largeFree[:i+1], h.largeFree[i+2:]...)
	}
	if i > 0 && h.largeFree[i-1].off+h.largeFree[i-1].size == h.largeFree[i].off {
		merged := h.largeFree[i-1].size + h.largeFree[i].size
		h.largeMem.WTStoreU64(h.largeAt.Add(h.largeFree[i-1].off), packChunk(merged, false))
		h.largeFree[i-1].size = merged
		h.largeFree = append(h.largeFree[:i], h.largeFree[i+1:]...)
	}
	h.largeMem.Fence()
	telemetry.CountPhaseFence(telemetry.PhaseFree)
	return nil
}

// findLargeFit returns the index of the first free chunk of at least need
// bytes, or -1.
func (h *Heap) findLargeFit(need int64) int {
	for i, c := range h.largeFree {
		if c.size >= need {
			return i
		}
	}
	return -1
}

// rebuildLargeIndex walks the chunk chain, rebuilding the volatile free
// list and durably coalescing adjacent free chunks (idempotent single-word
// rewrites, safe at any crash point).
func (h *Heap) rebuildLargeIndex() {
	h.largeFree = h.largeFree[:0]
	if h.largeSz == 0 {
		return
	}
	off := int64(0)
	for off < h.largeSz {
		size, inUse := unpackChunk(h.largeMem.LoadU64(h.largeAt.Add(off)))
		if size < chunkHdr || off+size > h.largeSz {
			panic(fmt.Sprintf("pheap: corrupt large chunk chain at +%d (size %d)", off, size))
		}
		if inUse {
			off += size
			continue
		}
		// Absorb any directly following free chunks.
		end := off + size
		for end < h.largeSz {
			nsize, nInUse := unpackChunk(h.largeMem.LoadU64(h.largeAt.Add(end)))
			if nInUse || nsize < chunkHdr || end+nsize > h.largeSz {
				break
			}
			end += nsize
		}
		if end-off != size {
			h.largeMem.WTStoreU64(h.largeAt.Add(off), packChunk(end-off, false))
			h.largeMem.Fence()
		}
		h.largeFree = append(h.largeFree, chunk{off: off, size: end - off})
		off = end
	}
}
