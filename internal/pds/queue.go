package pds

import (
	"errors"
	"fmt"

	"repro/internal/pmem"
)

// Queue is a persistent single-producer/single-consumer ring of
// fixed-size cells built directly on the persistence primitives — no
// transactions. It demonstrates the paper's append-update method
// (Table 2): "An append update ... writes new data to empty space after
// the previous update, thus never modifying existing data. The individual
// stores comprising an append update are unordered, but separate appends
// must complete in order."
//
// Enqueue streams the payload into the next free cell (stores unordered),
// fences, and then publishes it with a durable single-variable update of
// the tail index. A crash between the two leaves an unpublished cell —
// "after a failure, an incomplete append (there can be only one) is
// discarded". Dequeue is a durable head bump; a crash after reading but
// before bumping redelivers the element (at-least-once consumption).
//
// Layout: magic(8) capacity(8) cellSize(8) head(8) tail(8) pad(24) cells.
type RingQueue struct {
	base     pmem.Addr
	capacity uint64
	cellSize int64
}

// pqMagicV spells "MNPQUEUE".
const pqMagicV = 0x4d4e5051_55455545

const (
	pqCapOff   = 8
	pqCellOff  = 16
	pqHeadOff  = 24
	pqTailOff  = 32
	pqCellsOff = 64
)

// ErrQueueFull reports an enqueue into a full ring.
var ErrQueueFull = errors.New("pds: queue full")

// ErrQueueEmpty reports a dequeue from an empty ring.
var ErrQueueEmpty = errors.New("pds: queue empty")

// QueueSize returns the persistent footprint of a queue with the given
// geometry.
func QueueSize(capacity int, cellSize int64) int64 {
	return pqCellsOff + int64(capacity)*cellSize
}

// CreateQueue formats a queue at base. cellSize includes an 8-byte length
// header, so payloads up to cellSize-8 bytes fit.
func CreateQueue(mem pmem.Memory, base pmem.Addr, capacity int, cellSize int64) (*RingQueue, error) {
	if capacity < 2 || cellSize < 16 || cellSize%8 != 0 {
		return nil, fmt.Errorf("pds: bad queue geometry %d x %d", capacity, cellSize)
	}
	q := &RingQueue{base: base, capacity: uint64(capacity), cellSize: cellSize}
	mem.WTStoreU64(base.Add(pqCapOff), uint64(capacity))
	mem.WTStoreU64(base.Add(pqCellOff), uint64(cellSize))
	mem.WTStoreU64(base.Add(pqHeadOff), 0)
	mem.WTStoreU64(base.Add(pqTailOff), 0)
	mem.Fence()
	mem.WTStoreU64(base, pqMagicV)
	mem.Fence()
	return q, nil
}

// OpenQueue attaches to an existing queue. Published elements are exactly
// those between head and tail; an interrupted enqueue is invisible by
// construction.
func OpenQueue(mem pmem.Memory, base pmem.Addr) (*RingQueue, error) {
	if mem.LoadU64(base) != pqMagicV {
		return nil, fmt.Errorf("pds: no queue at %v", base)
	}
	return &RingQueue{
		base:     base,
		capacity: mem.LoadU64(base.Add(pqCapOff)),
		cellSize: int64(mem.LoadU64(base.Add(pqCellOff))),
	}, nil
}

func (q *RingQueue) cell(i uint64) pmem.Addr {
	return q.base.Add(pqCellsOff + int64(i%q.capacity)*q.cellSize)
}

// Len reports the number of published, unconsumed elements.
func (q *RingQueue) Len(mem pmem.Memory) int {
	return int(mem.LoadU64(q.base.Add(pqTailOff)) - mem.LoadU64(q.base.Add(pqHeadOff)))
}

// Enqueue appends data (at most cellSize-8 bytes) durably. When Enqueue
// returns, the element survives any crash.
func (q *RingQueue) Enqueue(mem pmem.Memory, data []byte) error {
	if int64(len(data)) > q.cellSize-8 {
		return fmt.Errorf("pds: element of %d bytes exceeds cell payload %d", len(data), q.cellSize-8)
	}
	head := mem.LoadU64(q.base.Add(pqHeadOff))
	tail := mem.LoadU64(q.base.Add(pqTailOff))
	if tail-head >= q.capacity {
		return ErrQueueFull
	}
	cell := q.cell(tail)
	// The append's stores are unordered among themselves...
	mem.WTStoreU64(cell, uint64(len(data)))
	if len(data) > 0 {
		mem.WTStore(cell.Add(8), data)
	}
	mem.Fence() // ...but must complete before the publishing update.
	pmem.StoreDurable(mem, q.base.Add(pqTailOff), tail+1)
	return nil
}

// Dequeue removes and returns the oldest element. Consumption is
// at-least-once: a crash after the caller observes the data but before
// Dequeue's head bump redelivers it on recovery.
func (q *RingQueue) Dequeue(mem pmem.Memory) ([]byte, error) {
	head := mem.LoadU64(q.base.Add(pqHeadOff))
	tail := mem.LoadU64(q.base.Add(pqTailOff))
	if head == tail {
		return nil, ErrQueueEmpty
	}
	cell := q.cell(head)
	n := mem.LoadU64(cell)
	if int64(n) > q.cellSize-8 {
		return nil, fmt.Errorf("pds: corrupt queue cell at %v", cell)
	}
	out := make([]byte, n)
	if n > 0 {
		mem.Load(out, cell.Add(8))
	}
	pmem.StoreDurable(mem, q.base.Add(pqHeadOff), head+1)
	return out, nil
}

// Peek returns the oldest element without consuming it.
func (q *RingQueue) Peek(mem pmem.Memory) ([]byte, error) {
	head := mem.LoadU64(q.base.Add(pqHeadOff))
	if head == mem.LoadU64(q.base.Add(pqTailOff)) {
		return nil, ErrQueueEmpty
	}
	cell := q.cell(head)
	n := mem.LoadU64(cell)
	out := make([]byte, n)
	if n > 0 {
		mem.Load(out, cell.Add(8))
	}
	return out, nil
}
