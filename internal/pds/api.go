package pds

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"repro/internal/mtm"
	"repro/internal/pds/mod"
	"repro/internal/pheap"
	"repro/internal/pmem"
	"repro/internal/region"
)

// This file is the redesigned front door of the package. The historical
// surface grew one bespoke constructor per structure (CreateHashTable,
// NewBPTree, NewAVL, NewRBTree, CreateQueue), all hard-wired to the mtm
// transaction backend. The structures now sit behind three small
// interfaces — Map, OrderedMap, Queue — and a Backend selector:
//
//	BackendMTM  in-place updates inside mtm transactions (undo/redo
//	            logged, ≥2 fences per commit, multi-structure atomicity)
//	BackendMOD  shadow updates in internal/pds/mod (copy-on-write paths,
//	            exactly 1 fence per mutation, per-structure atomicity)
//
// The old constructors remain as thin deprecated wrappers; new code and
// the servers/bench kernels go through NewMap / NewOrderedMap / NewQueue.
//
// The tx / r parameters of the interface methods belong to the mtm
// backend. The MOD backend is self-committing and ignores them, with one
// exception: a reader obtained from View (a *mod.Snap) scopes all reads
// in the callback to one pinned snapshot. Callers that hold no
// transaction pass nil.

// Backend selects a persistence strategy for the pds structures.
type Backend int

const (
	// BackendMTM is the transactional backend: mutations run inside an
	// mtm transaction supplied by the caller and commit with its log.
	BackendMTM Backend = iota
	// BackendMOD is the shadow-update backend: mutations self-commit
	// with a single fence and a root-pointer swap (internal/pds/mod).
	BackendMOD
)

// String names the backend as accepted by ParseBackend.
func (b Backend) String() string {
	switch b {
	case BackendMTM:
		return "mtm"
	case BackendMOD:
		return "mod"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend parses a backend name ("mtm" or "mod"), for flags.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "mtm", "":
		return BackendMTM, nil
	case "mod":
		return BackendMOD, nil
	default:
		return 0, fmt.Errorf("pds: unknown backend %q (want mtm or mod)", s)
	}
}

// Env bundles the runtime handles a backend may need. MTM structures use
// TM (and optionally Thread); MOD structures use RT and Heap; the ring
// queue uses Mem. Unused fields may stay nil.
type Env struct {
	TM     *mtm.TM
	Thread *mtm.Thread // optional: Do runs on it instead of on TM.Atomic's thread
	RT     *region.Runtime
	Heap   *pheap.Heap
	Mem    pmem.Memory // optional: defaults to RT.NewMemory()
}

func (e Env) memory() pmem.Memory {
	if e.Mem != nil {
		return e.Mem
	}
	return e.RT.NewMemory()
}

// Map is an unordered persistent map keyed by uint64.
type Map interface {
	Put(tx *mtm.Tx, key uint64, val []byte) error
	Get(r mtm.Reader, key uint64) ([]byte, error)
	Delete(tx *mtm.Tx, key uint64) error
	Contains(r mtm.Reader, key uint64) bool
	Scan(r mtm.Reader, fn func(key uint64, val []byte) bool)
	Len(r mtm.Reader) int64
	// Do runs fn with a transaction when the backend needs one (MTM),
	// or with a nil tx for the self-committing MOD backend.
	Do(fn func(tx *mtm.Tx) error) error
	// View runs fn against a consistent read-only view: an mtm read
	// transaction, or a pinned MOD snapshot.
	View(fn func(r mtm.Reader) error) error
	Backend() Backend
}

// OrderedMap is a persistent map keyed by uint64 with in-order range
// scans from a start key.
type OrderedMap interface {
	Put(tx *mtm.Tx, key uint64, val []byte) error
	// Upsert is Put of the value head‖tail — a header the caller framed
	// and a payload it never joins to it — guarded against replacing
	// another owner's value: a stored value is replaced only if its first
	// guard bytes equal head's, else nothing changes and the error is
	// ErrMismatch. The transactional backend checks and replaces in a
	// single descent.
	Upsert(tx *mtm.Tx, key uint64, head, tail []byte, guard int) error
	Get(r mtm.Reader, key uint64) ([]byte, error)
	// Find locates key's value without copying it; the caller loads the
	// parts it needs (a header, or the payload straight into a reply
	// buffer) from the returned Stored.
	Find(r mtm.Reader, key uint64) (Stored, error)
	Delete(tx *mtm.Tx, key uint64) error
	Contains(r mtm.Reader, key uint64) bool
	Scan(r mtm.Reader, from uint64, fn func(key uint64, val []byte) bool)
	Len(r mtm.Reader) int
	Do(fn func(tx *mtm.Tx) error) error
	View(fn func(r mtm.Reader) error) error
	Backend() Backend
}

// Queue is a persistent FIFO queue of byte payloads.
type Queue interface {
	Enqueue(val []byte) error
	Dequeue() ([]byte, error)
	Peek() ([]byte, error)
	Len() int
}

// NewMap returns a Map over the root cell rootPtr. For BackendMTM the
// map is a bucketed hash table: nbuckets sizes a table created on first
// use (an existing table is reopened regardless of nbuckets). For
// BackendMOD nbuckets is ignored.
func NewMap(b Backend, env Env, rootPtr pmem.Addr, nbuckets int) (Map, error) {
	switch b {
	case BackendMTM:
		e := &mtmEnv{env: env}
		var h *HashTable
		err := e.do(func(tx *mtm.Tx) error {
			var err error
			if tx.LoadU64(rootPtr) == 0 {
				return nil
			}
			h, err = OpenHashTable(tx, rootPtr)
			return err
		})
		if err != nil {
			return nil, err
		}
		if h == nil {
			if err := e.withThread(func(th *mtm.Thread) error {
				var err error
				h, err = CreateHashTable(th, rootPtr, nbuckets)
				return err
			}); err != nil {
				return nil, err
			}
		}
		return &mtmMap{mtmEnv: e, h: h}, nil
	case BackendMOD:
		return &modMap{m: mod.NewMap(env.RT, env.Heap, rootPtr)}, nil
	default:
		return nil, fmt.Errorf("pds: unknown backend %v", b)
	}
}

// NewOrderedMap returns an OrderedMap over the root cell rootPtr: a
// transactional B+ tree for BackendMTM, a shadow-updated treap for
// BackendMOD. A zero root cell is an empty map under either backend.
func NewOrderedMap(b Backend, env Env, rootPtr pmem.Addr) (OrderedMap, error) {
	switch b {
	case BackendMTM:
		return &mtmOrdered{mtmEnv: &mtmEnv{env: env}, t: NewBPTree(rootPtr)}, nil
	case BackendMOD:
		return &modOrdered{m: mod.NewMap(env.RT, env.Heap, rootPtr)}, nil
	default:
		return nil, fmt.Errorf("pds: unknown backend %v", b)
	}
}

// NewQueue returns a Queue at base. For BackendMTM this is the
// fixed-geometry persistent ring (capacity cells of cellSize bytes,
// formatted on first use); for BackendMOD it is the unbounded
// shadow-updated two-list queue rooted at the cell base, and the
// geometry arguments are ignored.
func NewQueue(b Backend, env Env, base pmem.Addr, capacity int, cellSize int64) (Queue, error) {
	switch b {
	case BackendMTM:
		mem := env.memory()
		q, err := OpenQueue(mem, base)
		if err != nil {
			q, err = CreateQueue(mem, base, capacity, cellSize)
			if err != nil {
				return nil, err
			}
		}
		return &ringAdapter{q: q, mem: mem}, nil
	case BackendMOD:
		return &modQueue{q: mod.NewQueue(env.RT, env.Heap, base)}, nil
	default:
		return nil, fmt.Errorf("pds: unknown backend %v", b)
	}
}

// mtmEnv supplies transactions for the MTM adapters.
type mtmEnv struct{ env Env }

func (e *mtmEnv) withThread(fn func(th *mtm.Thread) error) error {
	if e.env.Thread != nil {
		return fn(e.env.Thread)
	}
	th, err := e.env.TM.Lease(context.Background())
	if err != nil {
		return err
	}
	defer th.Close()
	return fn(th)
}

func (e *mtmEnv) do(fn func(tx *mtm.Tx) error) error {
	if e.env.Thread != nil {
		return e.env.Thread.Atomic(fn)
	}
	return e.env.TM.Atomic(fn)
}

func (e *mtmEnv) view(fn func(r mtm.Reader) error) error {
	return e.env.TM.View(func(r *mtm.ReadTx) error { return fn(r) })
}

// mtmMap adapts *HashTable to Map.
type mtmMap struct {
	*mtmEnv
	h *HashTable
}

func (m *mtmMap) Put(tx *mtm.Tx, key uint64, val []byte) error { return m.h.Put(tx, key, val) }
func (m *mtmMap) Get(r mtm.Reader, key uint64) ([]byte, error) { return m.h.Get(r, key) }
func (m *mtmMap) Delete(tx *mtm.Tx, key uint64) error          { return m.h.Delete(tx, key) }
func (m *mtmMap) Contains(r mtm.Reader, key uint64) bool       { return m.h.Contains(r, key) }
func (m *mtmMap) Scan(r mtm.Reader, fn func(key uint64, val []byte) bool) {
	m.h.Scan(r, fn)
}
func (m *mtmMap) Len(r mtm.Reader) int64                 { return m.h.Len(r) }
func (m *mtmMap) Do(fn func(tx *mtm.Tx) error) error     { return m.do(fn) }
func (m *mtmMap) View(fn func(r mtm.Reader) error) error { return m.view(fn) }
func (m *mtmMap) Backend() Backend                       { return BackendMTM }

// mtmOrdered adapts *BPTree to OrderedMap.
type mtmOrdered struct {
	*mtmEnv
	t *BPTree
}

func (m *mtmOrdered) Put(tx *mtm.Tx, key uint64, val []byte) error { return m.t.Put(tx, key, val) }
func (m *mtmOrdered) Upsert(tx *mtm.Tx, key uint64, head, tail []byte, guard int) error {
	return m.t.Upsert(tx, key, head, tail, guard)
}
func (m *mtmOrdered) Get(r mtm.Reader, key uint64) ([]byte, error)  { return m.t.Get(r, key) }
func (m *mtmOrdered) Find(r mtm.Reader, key uint64) (Stored, error) { return m.t.Find(r, key) }
func (m *mtmOrdered) Delete(tx *mtm.Tx, key uint64) error           { return m.t.Delete(tx, key) }
func (m *mtmOrdered) Contains(r mtm.Reader, key uint64) bool        { return m.t.Contains(r, key) }
func (m *mtmOrdered) Scan(r mtm.Reader, from uint64, fn func(key uint64, val []byte) bool) {
	m.t.Scan(r, from, fn)
}
func (m *mtmOrdered) Len(r mtm.Reader) int                   { return m.t.Len(r) }
func (m *mtmOrdered) Do(fn func(tx *mtm.Tx) error) error     { return m.do(fn) }
func (m *mtmOrdered) View(fn func(r mtm.Reader) error) error { return m.view(fn) }
func (m *mtmOrdered) Backend() Backend                       { return BackendMTM }

// modErr maps the mod package's sentinel onto the pds one so callers
// match errors.Is(err, pds.ErrNotFound) regardless of backend.
func modErr(err error) error {
	if errors.Is(err, mod.ErrNotFound) {
		return ErrNotFound
	}
	return err
}

// modReader resolves the reader for a MOD adapter call: a *mod.Snap
// pins the caller to one snapshot; anything else (typically nil, or an
// mtm reader leaking through mixed code) reads the live structure.
func modSnap(r mtm.Reader) (*mod.Snap, bool) {
	s, ok := r.(*mod.Snap)
	return s, ok
}

// modOrdered adapts *mod.Map to OrderedMap. Mutations ignore tx and
// self-commit (single fence); reads honor a *mod.Snap reader.
type modOrdered struct{ m *mod.Map }

func (a *modOrdered) Put(_ *mtm.Tx, key uint64, val []byte) error { return a.m.Put(key, val) }
func (a *modOrdered) Get(r mtm.Reader, key uint64) ([]byte, error) {
	if s, ok := modSnap(r); ok {
		v, err := s.Get(key)
		return v, modErr(err)
	}
	v, err := a.m.Get(key)
	return v, modErr(err)
}

// Upsert checks the guard against a copy of the stored value, then puts:
// MOD values may be segmented, so there is no in-place compare to do.
func (a *modOrdered) Upsert(_ *mtm.Tx, key uint64, head, tail []byte, guard int) error {
	if old, err := a.m.Get(key); err == nil && !bytes.HasPrefix(old, head[:guard]) {
		return ErrMismatch
	} else if err != nil && !errors.Is(err, mod.ErrNotFound) {
		return err
	}
	return a.m.Put(key, append(head[:len(head):len(head)], tail...))
}

// Find hands over a copy of the value, for the same reason.
func (a *modOrdered) Find(r mtm.Reader, key uint64) (Stored, error) {
	val, err := a.Get(r, key)
	return Stored{n: len(val), b: val}, err
}
func (a *modOrdered) Delete(_ *mtm.Tx, key uint64) error { return modErr(a.m.Delete(key)) }
func (a *modOrdered) Contains(r mtm.Reader, key uint64) bool {
	if s, ok := modSnap(r); ok {
		return s.Contains(key)
	}
	return a.m.Contains(key)
}
func (a *modOrdered) Scan(r mtm.Reader, from uint64, fn func(key uint64, val []byte) bool) {
	if s, ok := modSnap(r); ok {
		s.Scan(from, fn)
		return
	}
	a.m.Scan(from, fn)
}
func (a *modOrdered) Len(r mtm.Reader) int {
	if s, ok := modSnap(r); ok {
		return s.Len()
	}
	return a.m.Len()
}

// Do runs fn with a nil tx: MOD mutations are individually
// self-committing, so the callback is a convenience grouping only — it
// is NOT atomic across the operations inside it.
func (a *modOrdered) Do(fn func(tx *mtm.Tx) error) error { return fn(nil) }

// View pins a snapshot for the duration of fn; every read through the
// passed reader sees one consistent state, concurrent with writers.
func (a *modOrdered) View(fn func(r mtm.Reader) error) error {
	s := a.m.Snapshot()
	defer s.Release()
	return fn(s)
}
func (a *modOrdered) Backend() Backend { return BackendMOD }

// Mod returns the underlying shadow-update map (Sync, Snapshot,
// PinnedRoots) of a BackendMOD OrderedMap, or nil.
func (a *modOrdered) Mod() *mod.Map { return a.m }

// modMap adapts *mod.Map to the unordered Map interface (the treap is
// ordered anyway; Scan just starts at zero).
type modMap struct{ m *mod.Map }

func (a *modMap) Put(_ *mtm.Tx, key uint64, val []byte) error { return a.m.Put(key, val) }
func (a *modMap) Get(r mtm.Reader, key uint64) ([]byte, error) {
	if s, ok := modSnap(r); ok {
		v, err := s.Get(key)
		return v, modErr(err)
	}
	v, err := a.m.Get(key)
	return v, modErr(err)
}
func (a *modMap) Delete(_ *mtm.Tx, key uint64) error { return modErr(a.m.Delete(key)) }
func (a *modMap) Contains(r mtm.Reader, key uint64) bool {
	if s, ok := modSnap(r); ok {
		return s.Contains(key)
	}
	return a.m.Contains(key)
}
func (a *modMap) Scan(r mtm.Reader, fn func(key uint64, val []byte) bool) {
	if s, ok := modSnap(r); ok {
		s.Scan(0, fn)
		return
	}
	a.m.Scan(0, fn)
}
func (a *modMap) Len(r mtm.Reader) int64 {
	if s, ok := modSnap(r); ok {
		return int64(s.Len())
	}
	return int64(a.m.Len())
}
func (a *modMap) Do(fn func(tx *mtm.Tx) error) error { return fn(nil) }
func (a *modMap) View(fn func(r mtm.Reader) error) error {
	s := a.m.Snapshot()
	defer s.Release()
	return fn(s)
}
func (a *modMap) Backend() Backend { return BackendMOD }
func (a *modMap) Mod() *mod.Map    { return a.m }

// ringAdapter binds a RingQueue to one memory context behind Queue.
type ringAdapter struct {
	q   *RingQueue
	mem pmem.Memory
}

func (r *ringAdapter) Enqueue(val []byte) error { return r.q.Enqueue(r.mem, val) }
func (r *ringAdapter) Dequeue() ([]byte, error) { return r.q.Dequeue(r.mem) }
func (r *ringAdapter) Peek() ([]byte, error)    { return r.q.Peek(r.mem) }
func (r *ringAdapter) Len() int                 { return r.q.Len(r.mem) }

// modQueue adapts *mod.Queue to Queue, mapping its empty sentinel.
type modQueue struct{ q *mod.Queue }

func (m *modQueue) Enqueue(val []byte) error { return m.q.Enqueue(val) }
func (m *modQueue) Dequeue() ([]byte, error) {
	v, err := m.q.Dequeue()
	if errors.Is(err, mod.ErrQueueEmpty) {
		return nil, ErrQueueEmpty
	}
	return v, err
}
func (m *modQueue) Peek() ([]byte, error) {
	v, err := m.q.Peek()
	if errors.Is(err, mod.ErrQueueEmpty) {
		return nil, ErrQueueEmpty
	}
	return v, err
}
func (m *modQueue) Len() int { return m.q.Len() }
