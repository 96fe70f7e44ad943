// Package mod implements MOD-style minimally-ordered durable structures
// (Haria, Hill, Swift — "MOD: Minimally Ordered Durable Datastructures
// for Persistent Memory") as an alternative backend for the pds
// structures: a copy-on-write map and queue over the persistent heap
// where every mutation clones the path from the root into fresh shadow
// blocks, flushes the new blocks, and commits with a single root-pointer
// swap plus ONE ordering fence — no RAWL record, no mtm log slot, no
// thread lease.
//
// # Commit protocol
//
// A mutation builds its entire result out of line: every new node comes
// from pheap's out-of-band shadow allocator (PMallocShadow — no redo
// record, no fence, no destination pointer), is filled with plain
// cacheable stores, and is recorded in a pheap.FlushBatch. Commit is
// then:
//
//	batch.Flush(mem)            // write back every shadow line
//	mem.Fence()                 // the single ordering fence
//	mem.WTStoreU64(root, new)   // atomic 8-byte root swap
//
// The fence orders all shadow content (nodes, value blocks, allocator
// bitmap bits) before the swap; the swap itself is a single atomic word
// whose durability is deferred — it sits in the structure's
// write-combining buffer until the next operation's fence (or an
// explicit Sync) drains it. A crash therefore recovers to the structure
// as of some operation boundary: the old root or the new one, never a
// torn interior. This is buffered durable linearizability, exactly the
// paper's contract; callers that need a synchronous durability point
// call Sync (one extra fence) and get it.
//
// # Snapshots and reclamation
//
// Published nodes are immutable, so an old root is a free, consistent
// snapshot: Snapshot pins the current root in a registry and reads it
// lock-free while writers keep committing — the same role PR 5's View
// plays for the mtm backend, and a *Snap implements mtm.Reader so the
// shared read-side code paths accept it. Superseded nodes are not freed
// inline (a pinned snapshot may still reach them); a deferred
// reclamation sweep — pgc's conservative mark-sweep with every pinned
// root added as an extra GC root — frees them once nothing can reach
// them, and the same sweep reclaims blocks leaked by a crash between
// shadow allocation and root swap. Whoever owns the structure runs it,
// quiesced: Sync, then a collection with ExtraRoots = PinnedRoots() (on a
// core.PM, pm.Collect(m.PinnedRoots()...)).
package mod

import (
	"sync"

	"repro/internal/pheap"
	"repro/internal/pmem"
	"repro/internal/region"
	"repro/internal/telemetry"
)

var (
	telCommits = telemetry.NewCounter("mod_commits_total",
		"MOD shadow-update mutations committed (one root swap each)")
	telCommitFences = telemetry.NewCounter("mod_commit_fences_total",
		"ordering fences issued by MOD commits (exactly one per mutation)")
	telSyncFences = telemetry.NewCounter("mod_sync_fences_total",
		"extra fences issued by explicit MOD Sync calls")
	telShadowBytes = telemetry.NewCounter("mod_shadow_bytes_total",
		"bytes of shadow blocks flushed by MOD commits")
	telSnapshots = telemetry.NewCounter("mod_snapshots_total",
		"MOD snapshots pinned")
)

// base carries the pieces every MOD structure shares: the root-pointer
// cell, the writer's memory context (whose write-combining buffer is the
// deferred-durability channel for root swaps), the shadow allocator, the
// flush batch, and the snapshot pin registry.
type base struct {
	mu      sync.Mutex // serializes writers; commit order = fence order
	rt      *region.Runtime
	mem     pmem.Memory // writer context — root swaps drain in order
	heap    *pheap.Heap
	rootPtr pmem.Addr
	batch   pheap.FlushBatch

	pinMu sync.Mutex
	pins  map[uint64]pmem.Addr
	next  uint64

	readers sync.Pool // of pmem.Memory, for concurrent snapshot readers
}

func newBase(rt *region.Runtime, heap *pheap.Heap, rootPtr pmem.Addr) base {
	return base{
		rt:      rt,
		mem:     rt.NewMemory(),
		heap:    heap,
		rootPtr: rootPtr,
		pins:    make(map[uint64]pmem.Addr),
	}
}

// commit publishes newRoot with the single-fence protocol. Called with
// b.mu held, after the mutation has filled its shadow blocks and batch.
func (b *base) commit(newRoot pmem.Addr) {
	b.batch.Flush(b.mem)
	b.mem.Fence() // the one ordering point of the whole mutation
	b.mem.WTStoreU64(b.rootPtr, uint64(newRoot))
	telCommits.Inc()
	telCommitFences.Inc()
	telShadowBytes.Add(uint64(b.batch.Bytes()))
}

// Sync makes every committed mutation durable now: one fence drains the
// pending root swap. Use it before an orderly shutdown, before a
// reclamation sweep, or wherever buffered durability is not enough.
func (b *base) Sync() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mem.Fence()
	telSyncFences.Inc()
}

// alloc is PMallocShadow against the structure's batch.
func (b *base) alloc(size int64) (pmem.Addr, error) {
	return b.heap.PMallocShadow(size, &b.batch)
}

// readerMem borrows a memory context for a snapshot reader.
func (b *base) readerMem() pmem.Memory {
	if m, ok := b.readers.Get().(pmem.Memory); ok {
		return m
	}
	return b.rt.NewMemory()
}

// pinRoot registers root and returns its pin id. Loading the root and
// pinning it are one critical section, so a sweep that snapshots the pin
// table can never miss a root a reader is about to traverse.
func (b *base) pinRoot(mem pmem.Memory) (pmem.Addr, uint64) {
	b.pinMu.Lock()
	root := pmem.Addr(mem.LoadU64(b.rootPtr))
	b.next++
	id := b.next
	if root != pmem.Nil {
		b.pins[id] = root
	}
	b.pinMu.Unlock()
	telSnapshots.Inc()
	return root, id
}

func (b *base) unpin(id uint64) {
	b.pinMu.Lock()
	delete(b.pins, id)
	b.pinMu.Unlock()
}

// PinnedRoots returns the roots of every live snapshot. A reclamation
// sweep passes these to pgc as extra GC roots so pinned history stays
// reachable.
func (b *base) PinnedRoots() []pmem.Addr {
	b.pinMu.Lock()
	defer b.pinMu.Unlock()
	roots := make([]pmem.Addr, 0, len(b.pins))
	for _, r := range b.pins {
		roots = append(roots, r)
	}
	return roots
}

// Snap is a pinned, immutable view of a MOD structure: the root as of
// Snapshot time. It implements mtm.Reader (raw loads — published MOD
// nodes are immutable, so no validation is needed), letting shared
// read-side code accept either a transactional reader or a MOD snapshot.
// Release it when done so reclamation can free superseded nodes.
type Snap struct {
	b    *base
	mem  pmem.Memory
	root pmem.Addr // root block at pin time, or Nil for an empty structure
	id   uint64
}

func (b *base) snapshot() *Snap {
	mem := b.readerMem()
	root, id := b.pinRoot(mem)
	return &Snap{b: b, mem: mem, root: root, id: id}
}

// LoadU64 reads the word at a (mtm.Reader).
func (s *Snap) LoadU64(a pmem.Addr) uint64 { return s.mem.LoadU64(a) }

// Load reads len(buf) bytes at a (mtm.Reader).
func (s *Snap) Load(buf []byte, a pmem.Addr) { s.mem.Load(buf, a) }

// Release unpins the snapshot. The Snap must not be used afterwards.
func (s *Snap) Release() {
	s.b.unpin(s.id)
	s.b.readers.Put(s.mem)
	s.mem = nil
}

// hash64 is the SplitMix64 finalizer: a bijection on 64-bit words, used
// as the treap priority so distinct keys never tie and equal key sets
// always shape identical treaps.
func hash64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
