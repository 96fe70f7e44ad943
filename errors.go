// Sentinel errors of the Mnemosyne stack, consolidated on the root
// package so callers can match them with errors.Is without importing
// internal packages. Wrapped variants compare equal: a context-cancelled
// lease, for example, matches both ErrLeaseTimeout and the context's own
// error.
package mnemosyne

import (
	"repro/internal/kvserve"
	"repro/internal/mtm"
	"repro/internal/pheap"
	"repro/internal/rawl"
)

var (
	// ErrTooManyThreads reports that every per-thread log slot is leased
	// or running a transaction; NewThread fails with it immediately, and
	// so does PM.Atomic under a negative LeaseTimeout.
	ErrTooManyThreads = mtm.ErrTooManyThreads
	// ErrLeaseTimeout reports that a thread lease or PM.Atomic gave up
	// waiting for a free log slot (deadline or cancellation).
	ErrLeaseTimeout = mtm.ErrLeaseTimeout
	// ErrLogFull reports a raw word log without room for the record.
	ErrLogFull = rawl.ErrLogFull
	// ErrOutOfMemory reports persistent-heap exhaustion.
	ErrOutOfMemory = pheap.ErrOutOfMemory
	// ErrDoubleFree reports a pfree of an already-free block.
	ErrDoubleFree = pheap.ErrDoubleFree
	// ErrNoHeap reports an open of a region holding no formatted heap.
	ErrNoHeap = pheap.ErrNoHeap
	// ErrKeyTooLong reports a kvserve key over the protocol limit.
	ErrKeyTooLong = kvserve.ErrKeyTooLong
	// ErrValueTooLong reports a kvserve value over the protocol limit.
	ErrValueTooLong = kvserve.ErrValueTooLong
)
