package pheap

import (
	"fmt"
	"slices"

	"repro/internal/pmem"
	"repro/internal/telemetry"
)

// Transactional allocation. An allocation or free of a small block issued
// inside a durable transaction (mtm.Tx) does not run the lane log: the
// transaction's own commit record already orders and replays everything it
// changes, so the bitmap bit rides in that record as one more entry.
//
//   - Reserve takes a block's bit in the volatile bitmap only — no SCM
//     write, no fence. An abort (Aborted) gives it back; a crash forgets
//     it. The persistent bitmap never saw it.
//   - The transaction logs one BitOp per allocation (BitSet) and per free
//     (BitClear) in its commit record, and after the record's fence
//     applies them with ApplyBits: a read-modify-write of the persistent
//     bitmap word, written through, drained by the fence the commit issues
//     anyway.
//   - Once the record can no longer be replayed (truncated, or terminated
//     by its commit marker), Committed clears the freed blocks' volatile
//     bits, making them allocatable again. Until then a freed block stays
//     taken in the volatile bitmap, so no later transaction can reuse it
//     while a replay of this one could still clear its bit.
//   - Recovery applies logged ops with ReplayBit, idempotently and in the
//     transaction system's timestamp order, and then calls Rescan.
//
// The volatile bitmap is therefore a superset of the persistent one: it
// adds open reservations and keeps committed frees not yet released.
//
// The lane log remains for callers outside any transaction
// (Allocator.PMalloc / PFree / FreeAddr) and for large objects.

// Bit-op kinds, carried in the low bits of the 8-aligned bitmap-word
// address so an op fits the (address, value) pair of a commit record.
const (
	BitSet   = 1 // set the mask's bits: a committed allocation
	BitClear = 2 // clear the mask's bits: a committed free
	bitKind  = 7
)

// BitOp is one logged update of a persistent superblock bitmap word.
type BitOp struct {
	Word pmem.Addr // bitmap-word address | BitSet or BitClear
	Mask uint64    // the bits updated
}

// IsBitOp reports whether a logged address is a tagged bitmap-word address
// rather than a data word's (which is 8-aligned).
func IsBitOp(a pmem.Addr) bool { return a&bitKind != 0 }

// Inverse returns the op that undoes op, which undo logging records as the
// word's "old value".
func (op BitOp) Inverse() BitOp {
	return BitOp{Word: op.Word ^ (BitSet | BitClear), Mask: op.Mask}
}

func (op BitOp) kind() int { return int(op.Word & bitKind) }

// locate decodes the superblock and bitmap word an op addresses, rejecting
// anything that is not a bitmap word of this heap (recovery feeds it bytes
// read back from a log).
func (h *Heap) locate(op BitOp) (sb int32, w int, err error) {
	off := (op.Word &^ bitKind).Sub(h.sbMeta)
	if k := op.kind(); (k != BitSet && k != BitClear) || off < 0 || off >= h.sbCount*sbMetaSize {
		return 0, 0, fmt.Errorf("pheap: bad bitmap op %#x", uint64(op.Word))
	}
	if in := off % sbMetaSize; in >= 16 {
		return int32(off / sbMetaSize), int(in-16) / 8, nil
	}
	return 0, 0, fmt.Errorf("pheap: bitmap op %#x addresses a superblock header", uint64(op.Word))
}

// Reserve takes a free block of at most MaxSmall bytes in the volatile
// bitmap and returns it with the BitSet op that publishes it. Nothing is
// written to SCM (adopting a fresh superblock, once per superblock's worth
// of blocks, durably assigns its class as for any allocation).
func (a *Allocator) Reserve(size int64) (pmem.Addr, BitOp, error) {
	if size <= 0 || size > MaxSmall {
		return pmem.Nil, BitOp{}, fmt.Errorf("pheap: reserve of %d bytes", size)
	}
	c := classFor(size)
	a.lane.mu.Lock()
	defer a.lane.mu.Unlock()
	sb, st, bit, err := a.claimBlock(c)
	if err != nil {
		return pmem.Nil, BitOp{}, err
	}
	w, mask := bit/64, uint64(1)<<(bit%64)
	st.bitmap[w] |= mask
	st.free--
	st.mu.Unlock()
	telReservations.Inc()
	block := a.h.sbDataAddr(sb).Add(int64(bit) * classSize(c))
	if telemetry.TraceEnabled() {
		telemetry.Emit(telemetry.EvAlloc, uint64(a.idx), uint64(block), uint64(size))
	}
	return block, BitOp{Word: a.h.bitmapWord(sb, w) | BitSet, Mask: mask}, nil
}

// FreeOp returns the BitClear op that frees the live small block at addr.
// The block stays taken until Committed.
func (h *Heap) FreeOp(block pmem.Addr) (BitOp, error) {
	if !h.IsSmall(block) {
		return BitOp{}, fmt.Errorf("pheap: free of %v outside the superblock area", block)
	}
	st := &h.sbState[block.Sub(h.sbData)/SuperblockSize]
	st.mu.Lock()
	sb, bit, err := h.smallBit(block)
	st.mu.Unlock()
	if err != nil {
		return BitOp{}, err
	}
	return BitOp{Word: h.bitmapWord(sb, bit/64) | BitClear, Mask: 1 << (bit % 64)}, nil
}

// ApplyBits applies committed ops to the persistent bitmaps with
// write-through stores on mem, then calls fence, which must drain mem. It
// holds the lock of every superblock touched (taken in index order) until
// fence returns: no other context may rewrite one of these words while
// this store still sits in mem's write-combining buffer, or a crash would
// revert the word to a value that predates the other context's update.
// sbs is scratch for the locked set, returned for reuse.
func (h *Heap) ApplyBits(mem pmem.Memory, ops []BitOp, sbs []int32, fence func()) []int32 {
	sbs = sbs[:0]
	for _, op := range ops {
		sb, _, err := h.locate(op)
		if err != nil {
			panic(err) // ops come from Reserve and FreeOp
		}
		sbs = append(sbs, sb)
	}
	slices.Sort(sbs)
	sbs = slices.Compact(sbs)
	for _, sb := range sbs {
		h.sbState[sb].mu.Lock()
	}
	// Deferred: a simulated power failure panics out of the device calls
	// below, and the unwinding transaction must still be able to roll back.
	defer func() {
		for _, sb := range sbs {
			h.sbState[sb].mu.Unlock()
		}
	}()
	for _, op := range ops {
		rmwBits(mem, op.Word&^bitKind, op.Mask, op.kind() == BitSet)
	}
	fence()
	return sbs
}

// Committed completes a durable transaction's ops once its commit record
// can no longer be replayed: freed blocks become allocatable, and the
// allocation counters advance (allocBytes is the sum of the sizes the
// transaction requested). It returns how many frees found their block
// already free — two transactions freed one block — which it leaves alone.
func (h *Heap) Committed(ops []BitOp, allocBytes int64) (failed int) {
	frees, failed := h.release(ops, BitClear)
	telAllocs.Add(uint64(len(ops) - frees - failed))
	telAllocBytes.Add(uint64(allocBytes))
	telFrees.Add(uint64(frees))
	return failed
}

// Aborted returns an aborted transaction's reservations to the heap. Its
// frees never happened.
func (h *Heap) Aborted(ops []BitOp) {
	if _, failed := h.release(ops, BitSet); failed != 0 {
		panic("pheap: aborted reservation was not held")
	}
}

// release clears the volatile bit of every op of the given kind, counting
// those it released and those whose bit was already clear.
func (h *Heap) release(ops []BitOp, kind int) (released, failed int) {
	for _, op := range ops {
		if op.kind() != kind {
			continue
		}
		sb, w, err := h.locate(op)
		if err != nil {
			panic(err)
		}
		st := &h.sbState[sb]
		st.mu.Lock()
		if st.bitmap[w]&op.Mask == 0 {
			st.mu.Unlock()
			failed++
			continue
		}
		h.unmark(sb, st, w, op.Mask)
		released++
	}
	return released, failed
}

// ReplayBit re-applies one logged op to the persistent bitmap during the
// transaction system's recovery. Setting or clearing a bit is idempotent,
// so replaying an op whose effect already reached SCM is harmless; ops of
// different transactions on one bit must be replayed in commit order. The
// caller fences mem and calls Rescan when it is done.
func (h *Heap) ReplayBit(mem pmem.Memory, op BitOp) error {
	if _, _, err := h.locate(op); err != nil {
		return err
	}
	rmwBits(mem, op.Word&^bitKind, op.Mask, op.kind() == BitSet)
	return nil
}
