package mtm

import (
	"math/rand/v2"
	"time"

	"repro/internal/pmem"
	"repro/internal/region"
	"repro/internal/telemetry"
)

// Snapshot-read metrics. A started View is one call (not one attempt); a
// retry is an attempt abandoned because a concurrent commit moved a word
// under the reader; an extend is a successful snapshot raise that let an
// attempt continue instead of restarting.
var (
	telReadTxStarted = telemetry.NewCounter("mtm_readtx_started_total",
		"snapshot read transactions started (View calls)")
	telReadTxRetries = telemetry.NewCounter("mtm_readtx_retries_total",
		"snapshot read attempts restarted on a concurrent commit")
	telReadTxExtends = telemetry.NewCounter("mtm_readtx_extends_total",
		"snapshot timestamp extensions that revalidated a reader in place")
)

// Reader is the transactional read interface, implemented by both the
// writing transaction (*Tx, inside Thread.Atomic) and the slot-free
// snapshot transaction (*ReadTx, inside TM.View). Read-side code —
// lookups, scans, invariant checks — written against Reader runs
// identically inside either transaction kind.
type Reader interface {
	// LoadU64 transactionally reads the word at a.
	LoadU64(a pmem.Addr) uint64
	// Load transactionally reads len(buf) bytes at a.
	Load(buf []byte, a pmem.Addr)
}

// Writer is the full transactional interface: Reader plus transactional
// stores. Only *Tx implements it — snapshot readers cannot write.
type Writer interface {
	Reader
	// StoreU64 transactionally writes the word at a.
	StoreU64(a pmem.Addr, v uint64)
	// Store transactionally writes buf at a.
	Store(a pmem.Addr, buf []byte)
}

var (
	_ Writer = (*Tx)(nil)
	_ Reader = (*ReadTx)(nil)
)

// ReadTx is a slot-free snapshot read transaction. It samples the global
// commit clock and reads persistent words optimistically against the
// versioned lock words: a word whose covering lock moved (or is held by a
// committing writer) aborts the attempt, and a word committed after the
// snapshot raises it via TinySTM-style timestamp extension when the read
// set still validates.
//
// A ReadTx takes no thread lease, appends no log record, and issues no
// flush or fence — readers pay none of the write path's durability
// infrastructure, so any number of them run in parallel, unbounded by
// Config.Slots. Readers never block writers: they own no locks and back
// off on conflict.
//
// A ReadTx is only valid inside the function passed to TM.View and must
// not escape it.
type ReadTx struct {
	tm  *TM
	mem *region.Mem
	rv  uint64 // read snapshot timestamp

	reads []readEntry
}

// View runs fn as a snapshot read transaction — the read-only counterpart
// of Thread.Atomic. Every load inside fn observes one consistent committed
// snapshot: the effects of a whole prefix of the global commit order,
// never a partially committed (or partially recovered) transaction or
// group-commit epoch. Conflicts with concurrent commits retry fn
// automatically with randomized backoff; fn must therefore be safe to run
// more than once and must not write persistent memory. Returning an error
// stops the View and returns that error.
//
// View needs no transaction thread: it works when every log slot is
// leased, and GET-style read paths built on it perform zero leases and
// zero fences.
func (tm *TM) View(fn func(r *ReadTx) error) error {
	return tm.ViewSpanned(0, fn)
}

// ViewSpanned is View with an explicit parent span: the snapshot read is
// attributed (PhaseView) as a child of parent when span tracing is on.
// Request handlers pass their request span so GET latency decomposes in
// the flight recorder; parent 0 is equivalent to View.
func (tm *TM) ViewSpanned(parent uint64, fn func(r *ReadTx) error) error {
	sp := telemetry.SpanBegin(telemetry.PhaseView, 0, parent)
	defer sp.End()
	r := tm.getReader()
	if tm.cfg.ReadCacheWords > 0 {
		r.mem.EnableReadCache(tm.cfg.ReadCacheWords)
	}
	defer tm.putReader(r)
	telReadTxStarted.Inc()
	backoff := time.Microsecond
	for {
		err := r.attempt(fn)
		if err == nil {
			tm.stats.Views.Add(1)
			return nil
		}
		if _, isConflict := err.(conflictErr); !isConflict {
			return err
		}
		telReadTxRetries.Inc()
		// Randomized exponential backoff, as in Atomic: the conflicting
		// writer finishes its commit in the meantime.
		spinFor(time.Duration(rand.Int64N(int64(backoff) + 1)))
		if backoff < 128*time.Microsecond {
			backoff *= 2
		}
	}
}

// getReader pops a reader off the free list, or mints one when every
// reader is inside a View. It comes without a read cache: View attaches a
// slab from the runtime free list per snapshot.
func (tm *TM) getReader() *ReadTx {
	tm.readersMu.Lock()
	defer tm.readersMu.Unlock()
	n := len(tm.readers)
	if n == 0 {
		return &ReadTx{tm: tm, mem: tm.rt.NewMemory()}
	}
	r := tm.readers[n-1]
	tm.readers = tm.readers[:n-1]
	return r
}

// maxPooledReadCap bounds the read-set capacity a free-listed ReadTx may
// retain. A single large scan would otherwise pin its grown reads slice
// for the reader's lifetime — memory that nothing ever shrinks. Oversized
// read sets are dropped on put; the next View on that reader simply
// regrows from empty.
const maxPooledReadCap = 4096

// putReader returns a reader to the free list, capping what it retains.
// The read-cache slab goes back to the runtime free list rather than
// riding along, so its accumulated warmth — the very thing the cache
// trades memory for — serves the next View on whichever reader it runs.
func (tm *TM) putReader(r *ReadTx) {
	if cap(r.reads) > maxPooledReadCap {
		r.reads = nil
	}
	r.mem.FlushCacheStats()
	r.mem.ReleaseReadCache()
	tm.readersMu.Lock()
	tm.readers = append(tm.readers, r)
	tm.readersMu.Unlock()
}

// attempt runs fn once over a fresh snapshot, translating conflict panics
// into conflictErr for View's retry loop.
func (r *ReadTx) attempt(fn func(r *ReadTx) error) (err error) {
	r.rv = r.tm.clock.Load()
	r.reads = r.reads[:0]
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(conflict); ok {
				err = conflictErr{}
				return
			}
			panic(rec)
		}
	}()
	return fn(r)
}

// read implements the optimistic load of one word: sample the covering
// lock, load the value, confirm the lock did not move, and raise the
// snapshot when the word's version postdates it. A held lock aborts
// immediately — the writer is mid-commit and the reader must not wait on
// it (waiting under a reader-held resource could stall the writer; there
// is none, but backoff keeps the reader from spinning on the lock word).
func (r *ReadTx) read(a pmem.Addr) uint64 {
	li := r.tm.lockIdx(a)
	l := r.tm.lockAt(li)
	w := l.Load()
	if w&lockedBit != 0 {
		panic(conflict{})
	}
	// Read-through cache: a tag match against the version just sampled
	// proves the cached value is what the device load would return, so
	// both the load and the lock recheck are skipped.
	v, hit := r.mem.CacheLoadU64(a, w)
	if !hit {
		v = r.mem.LoadU64(a)
		if l.Load() != w {
			panic(conflict{})
		}
		r.mem.CacheFill(a, w, v)
	}
	if w > r.rv {
		r.extend()
	}
	r.reads = append(r.reads, readEntry{idx: li, seen: w})
	return v
}

// extend revalidates the read set against the current clock and raises
// the snapshot (TinySTM timestamp extension); a moved read aborts the
// attempt. Readers own no locks, so unlike Tx.validate there is no
// locked-by-us escape.
func (r *ReadTx) extend() {
	now := r.tm.clock.Load()
	for _, e := range r.reads {
		if r.tm.lockAt(e.idx).Load() != e.seen {
			panic(conflict{})
		}
	}
	r.rv = now
	telReadTxExtends.Inc()
}

// LoadU64 transactionally reads the word at a.
func (r *ReadTx) LoadU64(a pmem.Addr) uint64 { return r.read(a) }

// Load transactionally reads len(buf) bytes at a.
func (r *ReadTx) Load(buf []byte, a pmem.Addr) {
	n := int64(len(buf))
	i := int64(0)
	for i < n {
		w := r.read((a.Add(i)) &^ 7)
		shift := uint(uint64(a.Add(i)) & 7)
		for ; shift < 8 && i < n; shift++ {
			buf[i] = byte(w >> (shift * 8))
			i++
		}
	}
}

// Snapshot returns the attempt's read snapshot timestamp: the commit
// clock value the reads are consistent with (tests and assertions).
func (r *ReadTx) Snapshot() uint64 { return r.rv }
