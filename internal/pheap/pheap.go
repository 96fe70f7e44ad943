// Package pheap implements Mnemosyne's persistent heap (§4.3 of the
// paper): dynamic allocation of persistent memory with pmalloc/pfree,
// where allocations and their sizes persist across program invocations.
//
// The design follows the paper's modified Hoard allocator for small
// requests and a dlmalloc-like allocator for large ones:
//
//   - The heap is split into 8 KB superblocks, each holding fixed-size
//     blocks of one size class. A persistent bitmap per superblock tracks
//     allocated blocks, so allocating requires only one SCM write to set a
//     bit. Bitmaps live in a metadata area physically separate from the
//     allocated data, reducing the risk of corruption by stray writes.
//     Indexes that speed allocation (free counts, per-class superblock
//     lists) are volatile and regenerated when the heap is opened — the
//     "scavenge" cost measured in §6.3.2.
//
//   - Requests larger than the largest size class fall back to a
//     boundary-tag allocator over a dedicated large-object area. Chunk
//     headers hold only a size-and-in-use word, so every mutation is a
//     single atomic durable write; coalescing of adjacent free chunks is
//     a single idempotent size rewrite performed lazily.
//
// Atomicity: pmalloc takes the address of a persistent pointer to receive
// the block, so memory cannot leak if the system fails just after an
// allocation; pfree nullifies the pointer for the symmetric reason. Each
// operation is made atomic by logging a redo record (bitmap bit plus
// destination pointer) to a per-lane tornbit RAWL before applying it;
// recovery replays the logs in global sequence order (§4.3).
package pheap

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pmem"
	"repro/internal/rawl"
	"repro/internal/region"
	"repro/internal/telemetry"
)

// ErrNoHeap reports that the memory at base holds no formatted heap:
// either it never was one, or a crash interrupted Format before its magic
// committed. A caller that created the region expressly for this heap
// (e.g. via PMapAt on a dedicated static pointer) may safely re-Format on
// this error — no allocation can exist before Format's commit point.
var ErrNoHeap = errors.New("pheap: no heap")

const (
	heapMagic = 0x4d4e484541503031 // "MNHEAP01"

	// SuperblockSize matches the paper's 8 KB Hoard superblocks.
	SuperblockSize = 8192
	// MaxSmall is the largest request served from superblocks; larger
	// requests fall back to the large-object allocator.
	MaxSmall = 4096
	// MinBlock is the smallest block size class.
	MinBlock = 16

	numClasses = 9 // 16, 32, 64, ..., 4096

	// Per-superblock persistent metadata: a block-size word, a reserved
	// word, and a 64-word bitmap (512 bits, enough for 8192/16 blocks).
	sbMetaSize   = 576
	bitmapWords  = 64
	maxBlocksPer = SuperblockSize / MinBlock

	// Lane logs: each allocator lane owns a tornbit RAWL for redo
	// records. 1016 words of buffer fit a lane log slot of 8 KB.
	laneLogSlot  = 8192
	laneLogWords = (laneLogSlot - 64) / 8

	// Large-object area chunk header: one cache line holding a single
	// size-and-in-use word, so header updates are atomic 64-bit writes.
	chunkHdr = 64

	hdrSize = 4096 // heap header page
)

// Header word offsets (from the heap base).
const (
	offMagic   = 0
	offVersion = 8
	offSize    = 16
	offSBCount = 24
	offLargeAt = 32
	offLargeSz = 40
	offLanes   = 48
)

func classFor(size int64) int {
	c := 0
	for bs := int64(MinBlock); bs < size; bs <<= 1 {
		c++
	}
	return c
}

func classSize(c int) int64 { return MinBlock << c }

// Config tunes heap creation.
type Config struct {
	// Lanes is the number of independent allocator lanes, each with its
	// own redo log and active superblocks. More lanes mean less
	// contention between concurrently allocating goroutines. Zero
	// selects 8; the maximum is 64.
	Lanes int
	// LargeFraction is the fraction of the payload reserved for the
	// large-object area (default 1/4).
	LargeFraction float64
}

func (c *Config) fill() error {
	if c.Lanes == 0 {
		c.Lanes = 8
	}
	if c.Lanes < 1 || c.Lanes > 64 {
		return fmt.Errorf("pheap: lanes %d out of range [1,64]", c.Lanes)
	}
	if c.LargeFraction == 0 {
		c.LargeFraction = 0.25
	}
	if c.LargeFraction < 0 || c.LargeFraction > 0.9 {
		return fmt.Errorf("pheap: large fraction %v out of range", c.LargeFraction)
	}
	return nil
}

// Heap is a persistent heap over one persistent region.
type Heap struct {
	rt   *region.Runtime
	mem  pmem.Memory // heap-internal memory view (guarded by locks below)
	base pmem.Addr
	size int64

	sbCount  int64
	sbMeta   pmem.Addr // metadata array base
	sbData   pmem.Addr // superblock array base
	largeAt  pmem.Addr
	largeSz  int64
	numLanes int

	seq atomic.Uint64 // global operation sequence (volatile; logs are
	// empty after open, so restarting from 0 is safe)

	lanes []*lane

	// Volatile superblock index, rebuilt by scavenging at open.
	sbMu    sync.Mutex
	sbState []sbState
	partial [numClasses][]int32 // superblocks with free blocks, by class
	freeSBs []int32             // fully free, unassigned superblocks

	// Out-of-band shadow allocator (shadow.go): active superblocks for
	// the single-fence MOD allocation path, disjoint from every lane's.
	shadow shadowState

	// Volatile large-object free index.
	largeMu   sync.Mutex
	largeMem  pmem.Memory
	largeFree []chunk // sorted by offset

	scavenge time.Duration
}

type sbState struct {
	mu     sync.Mutex
	class  int8
	owner  int8 // lane owning it as active, or -1
	free   int32
	bitmap [bitmapWords]uint64 // volatile copy of the persistent bitmap
}

type lane struct {
	mu     sync.Mutex
	mem    pmem.Memory
	log    *rawl.Log
	active [numClasses]int32 // active superblock per class, or -1
}

type chunk struct {
	off  int64 // offset of the chunk header from largeAt
	size int64 // total chunk size including header
}

// Size computation helpers.
func (h *Heap) laneLogAddr(i int) pmem.Addr {
	return h.base.Add(hdrSize + int64(i)*laneLogSlot)
}

func (h *Heap) sbMetaAddr(sb int32) pmem.Addr {
	return h.sbMeta.Add(int64(sb) * sbMetaSize)
}

func (h *Heap) sbDataAddr(sb int32) pmem.Addr {
	return h.sbData.Add(int64(sb) * SuperblockSize)
}

// MinSize returns the smallest region size that yields at least one
// superblock with the given config.
func MinSize(cfg Config) int64 {
	if err := cfg.fill(); err != nil {
		return 1 << 20
	}
	return hdrSize + int64(cfg.Lanes)*laneLogSlot + sbMetaSize + SuperblockSize + chunkHdr*4
}

// Format initializes a persistent heap over [base, base+size), which must
// lie inside an existing persistent region.
func Format(rt *region.Runtime, base pmem.Addr, size int64, cfg Config) (*Heap, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if size < MinSize(cfg) {
		return nil, fmt.Errorf("pheap: size %d below minimum %d", size, MinSize(cfg))
	}
	h := &Heap{rt: rt, mem: rt.NewMemory(), base: base, size: size, numLanes: cfg.Lanes}

	// Carve the region: header, lane logs, then split the remainder
	// between superblocks (metadata + data) and the large area.
	payloadOff := int64(hdrSize) + int64(cfg.Lanes)*laneLogSlot
	payload := size - payloadOff
	largeSz := int64(float64(payload) * cfg.LargeFraction)
	sbBudget := payload - largeSz
	h.sbCount = sbBudget / (sbMetaSize + SuperblockSize)
	if h.sbCount < 1 {
		return nil, errors.New("pheap: no room for superblocks")
	}
	if h.sbCount > 1<<20 {
		h.sbCount = 1 << 20
	}
	h.sbMeta = base.Add(payloadOff)
	metaBytes := h.sbCount * sbMetaSize
	// Align superblock data to the superblock size for cheap
	// block-to-superblock math.
	dataOff := (payloadOff + metaBytes + SuperblockSize - 1) &^ (SuperblockSize - 1)
	h.sbData = base.Add(dataOff)
	largeOff := dataOff + h.sbCount*SuperblockSize
	h.largeAt = base.Add(largeOff)
	h.largeSz = (size - largeOff) &^ 63

	// Zero superblock metadata (blockSize 0 = unassigned) and format
	// the large area as one free chunk.
	zero := make([]byte, sbMetaSize)
	for sb := int32(0); sb < int32(h.sbCount); sb++ {
		h.mem.WTStore(h.sbMetaAddr(sb), zero)
		h.mem.Fence()
	}
	if h.largeSz >= 2*chunkHdr {
		h.mem.WTStoreU64(h.largeAt, packChunk(h.largeSz, false))
		h.mem.Fence()
	} else {
		h.largeSz = 0
	}

	for i := 0; i < cfg.Lanes; i++ {
		lmem := rt.NewMemory()
		log, err := rawl.Create(lmem, h.laneLogAddr(i), laneLogWords)
		if err != nil {
			return nil, err
		}
		h.lanes = append(h.lanes, &lane{mem: lmem, log: log})
	}

	// Header last: its magic is the commit point of formatting.
	h.mem.WTStoreU64(base.Add(offVersion), 1)
	h.mem.WTStoreU64(base.Add(offSize), uint64(size))
	h.mem.WTStoreU64(base.Add(offSBCount), uint64(h.sbCount))
	h.mem.WTStoreU64(base.Add(offLargeAt), uint64(largeOff))
	h.mem.WTStoreU64(base.Add(offLargeSz), uint64(h.largeSz))
	h.mem.WTStoreU64(base.Add(offLanes), uint64(cfg.Lanes))
	h.mem.Fence()
	h.mem.WTStoreU64(base.Add(offMagic), heapMagic)
	h.mem.Fence()

	h.initVolatile()
	h.Rescan()
	return h, nil
}

// Open attaches to an existing heap: it replays the allocator logs and
// scavenges the persistent bitmaps to regenerate the volatile indexes.
func Open(rt *region.Runtime, base pmem.Addr) (*Heap, error) {
	h := &Heap{rt: rt, mem: rt.NewMemory(), base: base}
	if h.mem.LoadU64(base.Add(offMagic)) != heapMagic {
		return nil, fmt.Errorf("%w at %v", ErrNoHeap, base)
	}
	h.size = int64(h.mem.LoadU64(base.Add(offSize)))
	h.sbCount = int64(h.mem.LoadU64(base.Add(offSBCount)))
	largeOff := int64(h.mem.LoadU64(base.Add(offLargeAt)))
	h.largeSz = int64(h.mem.LoadU64(base.Add(offLargeSz)))
	h.numLanes = int(h.mem.LoadU64(base.Add(offLanes)))
	payloadOff := int64(hdrSize) + int64(h.numLanes)*laneLogSlot
	h.sbMeta = base.Add(payloadOff)
	dataOff := (payloadOff + h.sbCount*sbMetaSize + SuperblockSize - 1) &^ (SuperblockSize - 1)
	h.sbData = base.Add(dataOff)
	h.largeAt = base.Add(largeOff)

	start := time.Now()
	// Replay redo records from all lane logs in global sequence order,
	// then truncate.
	type seqRec struct {
		seq uint64
		rec []uint64
	}
	var all []seqRec
	for i := 0; i < h.numLanes; i++ {
		lmem := rt.NewMemory()
		log, recs, err := rawl.Open(lmem, h.laneLogAddr(i))
		if err != nil {
			return nil, fmt.Errorf("pheap: lane %d: %w", i, err)
		}
		for _, r := range recs {
			if len(r) < 2 {
				continue
			}
			all = append(all, seqRec{seq: r[0], rec: r})
		}
		h.lanes = append(h.lanes, &lane{mem: lmem, log: log})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	for _, sr := range all {
		if err := h.replay(sr.rec); err != nil {
			return nil, err
		}
	}
	for _, l := range h.lanes {
		l.log.TruncateAll()
	}

	h.initVolatile()
	h.Rescan()
	h.scavenge = time.Since(start)
	return h, nil
}

// ScavengeTime reports how long log replay plus index reconstruction took
// at Open — the per-process reincarnation cost of §6.3.2.
func (h *Heap) ScavengeTime() time.Duration { return h.scavenge }

// Base returns the heap's base address.
func (h *Heap) Base() pmem.Addr { return h.base }

func (h *Heap) initVolatile() {
	h.largeMem = h.rt.NewMemory()
	h.sbState = make([]sbState, h.sbCount)
	h.shadow.mem = h.rt.NewMemory()
}

// Rescan scavenges the persistent superblock bitmaps and walks the large
// area to regenerate the volatile indexes from scratch: afterwards every
// volatile bitmap equals its persistent one and no lane owns a
// superblock. Format and Open end with it; the transaction system calls it
// again after its recovery replayed bitmap ops behind the heap's back
// (ReplayBit). The heap must be quiesced.
func (h *Heap) Rescan() {
	h.freeSBs = h.freeSBs[:0]
	for c := range h.partial {
		h.partial[c] = h.partial[c][:0]
	}
	for _, l := range h.lanes {
		for c := range l.active {
			l.active[c] = -1
		}
	}
	for c := range h.shadow.active {
		h.shadow.active[c] = -1
	}
	for sb := int32(0); sb < int32(h.sbCount); sb++ {
		meta := h.sbMetaAddr(sb)
		bs := int64(h.mem.LoadU64(meta))
		st := &h.sbState[sb]
		st.owner = -1
		st.class = -1
		st.free = 0
		st.bitmap = [bitmapWords]uint64{}
		if bs == 0 {
			h.freeSBs = append(h.freeSBs, sb)
			continue
		}
		c := classFor(bs)
		blocks := int32(SuperblockSize / bs)
		used := int32(0)
		for w := 0; w < bitmapWords; w++ {
			v := h.mem.LoadU64(h.bitmapWord(sb, w))
			st.bitmap[w] = v
			used += int32(bits.OnesCount64(v))
		}
		st.free = blocks - used
		if used == 0 {
			// Fully free: make it reassignable to any class.
			h.freeSBs = append(h.freeSBs, sb)
		} else {
			st.class = int8(c)
			if st.free > 0 {
				h.partial[c] = append(h.partial[c], sb)
			}
		}
	}
	h.rebuildLargeIndex()
}

// Stats reports heap occupancy, for tests and tooling.
type Stats struct {
	Superblocks     int64
	FreeSuperblocks int
	LargeBytes      int64
	LargeFreeBytes  int64
}

// ForEachAllocated calls fn for every live allocation (address and usable
// size), in no particular order. The heap must be quiesced: no concurrent
// allocation or free. Garbage collection (internal/pgc) and tooling use
// this to enumerate the block population.
func (h *Heap) ForEachAllocated(fn func(addr pmem.Addr, size int64) bool) {
	for sb := int32(0); sb < int32(h.sbCount); sb++ {
		st := &h.sbState[sb]
		st.mu.Lock()
		class := st.class
		bitmap := st.bitmap
		st.mu.Unlock()
		if class < 0 {
			continue
		}
		bs := classSize(int(class))
		blocks := int(SuperblockSize / bs)
		for bit := 0; bit < blocks; bit++ {
			if bitmap[bit/64]&(1<<(bit%64)) == 0 {
				continue
			}
			if !fn(h.sbDataAddr(sb).Add(int64(bit)*bs), bs) {
				return
			}
		}
	}
	h.largeMu.Lock()
	defer h.largeMu.Unlock()
	off := int64(0)
	for off < h.largeSz {
		size, inUse := unpackChunk(h.largeMem.LoadU64(h.largeAt.Add(off)))
		if size < chunkHdr || off+size > h.largeSz {
			return
		}
		if inUse {
			if !fn(h.largeAt.Add(off+chunkHdr), size-chunkHdr) {
				return
			}
		}
		off += size
	}
}

// FreeAddr releases the block at addr directly, without a user pointer
// slot: it routes through PFree via an internal scratch pointer. The
// garbage collector uses this to reclaim unreachable blocks. The scratch
// static must be provided by the caller (a persistent 8-byte slot).
func (a *Allocator) FreeAddr(block, scratch pmem.Addr) error {
	sp := telemetry.SpanBegin(telemetry.PhaseFree, uint64(a.idx), 0)
	defer sp.End()
	// The lane's memory view is shared by every allocator on the lane, and
	// a transaction thread's allocator is also used by the asynchronous log
	// manager: the scratch store takes the lane lock like any other use.
	a.lane.mu.Lock()
	defer a.lane.mu.Unlock()
	a.lane.mem.WTStoreU64(scratch, uint64(block))
	a.lane.mem.Fence()
	telemetry.CountPhaseFence(telemetry.PhaseFree)
	return a.pfreeLocked(scratch)
}

// Stats returns current occupancy counters.
func (h *Heap) Stats() Stats {
	h.sbMu.Lock()
	fs := len(h.freeSBs)
	h.sbMu.Unlock()
	h.largeMu.Lock()
	var lf int64
	for _, c := range h.largeFree {
		lf += c.size - chunkHdr
	}
	h.largeMu.Unlock()
	return Stats{
		Superblocks:     h.sbCount,
		FreeSuperblocks: fs,
		LargeBytes:      h.largeSz,
		LargeFreeBytes:  lf,
	}
}
