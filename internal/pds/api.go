package pds

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/mtm"
	"repro/internal/pds/mod"
	"repro/internal/pheap"
	"repro/internal/pmem"
	"repro/internal/region"
)

// This file is the MTM-vs-MOD comparison seam, and the only importer of
// internal/pds/mod: one OrderedMap interface over the transactional B+
// tree and over the shadow-updated treap, so that a benchmark kernel or a
// differential test can drive the same operation stream through both.
//
//	BackendMTM  in-place updates inside mtm transactions (redo/undo
//	            logged, multi-structure atomicity)
//	BackendMOD  shadow updates in internal/pds/mod (copy-on-write paths,
//	            exactly 1 fence per mutation, per-structure atomicity,
//	            buffered durability)
//
// Nothing is served through it: kvserve, shard, xstage, tcabinet and
// ldapdir call the concrete constructors (NewBPTree, CreateHashTable, …).
//
// The tx / r parameters of the interface methods belong to the MTM side.
// The MOD side is self-committing: Do hands its callback a nil *mtm.Tx and
// mutations ignore it, with one exception on the read side — a reader
// obtained from View (a *mod.Snap) scopes all reads in the callback to one
// pinned snapshot. Callers that hold no transaction pass nil.

// Backend selects a persistence strategy for an OrderedMap.
type Backend int

const (
	// BackendMTM is the transactional backend: mutations run inside an
	// mtm transaction supplied by the caller and commit with its log.
	BackendMTM Backend = iota
	// BackendMOD is the shadow-update backend: mutations self-commit
	// with a single fence and a root-pointer swap (internal/pds/mod).
	BackendMOD
)

// Env bundles the runtime handles a backend may need. The MTM map uses TM
// (and optionally Thread); the MOD map uses RT and Heap. Unused fields may
// stay nil.
type Env struct {
	TM     *mtm.TM
	Thread *mtm.Thread // optional: Do runs on it instead of on TM.Atomic's thread
	RT     *region.Runtime
	Heap   *pheap.Heap
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
	Scan(r mtm.Reader, from uint64, fn func(key uint64, val []byte) bool)
	Len(r mtm.Reader) int
	// Do runs fn with a transaction when the backend needs one (MTM),
	// or with a nil tx for the self-committing MOD backend.
	Do(fn func(tx *mtm.Tx) error) error
	// View runs fn against a consistent read-only view: an mtm read
	// transaction, or a pinned MOD snapshot.
	View(fn func(r mtm.Reader) error) error
}

// NewOrderedMap returns an OrderedMap over the root cell rootPtr: a
// transactional B+ tree for BackendMTM, a shadow-updated treap for
// BackendMOD. A zero root cell is an empty map under either backend.
func NewOrderedMap(b Backend, env Env, rootPtr pmem.Addr) (OrderedMap, error) {
	switch b {
	case BackendMTM:
		return &mtmOrdered{env: env, t: NewBPTree(rootPtr)}, nil
	case BackendMOD:
		return &modOrdered{m: mod.NewMap(env.RT, env.Heap, rootPtr)}, nil
	default:
		return nil, fmt.Errorf("pds: unknown backend %d", int(b))
	}
}

// mtmOrdered adapts *BPTree to OrderedMap.
type mtmOrdered struct {
	env Env
	t   *BPTree
}

func (m *mtmOrdered) Put(tx *mtm.Tx, key uint64, val []byte) error { return m.t.Put(tx, key, val) }
func (m *mtmOrdered) Upsert(tx *mtm.Tx, key uint64, head, tail []byte, guard int) error {
	return m.t.Upsert(tx, key, head, tail, guard)
}
func (m *mtmOrdered) Get(r mtm.Reader, key uint64) ([]byte, error)  { return m.t.Get(r, key) }
func (m *mtmOrdered) Find(r mtm.Reader, key uint64) (Stored, error) { return m.t.Find(r, key) }
func (m *mtmOrdered) Delete(tx *mtm.Tx, key uint64) error           { return m.t.Delete(tx, key) }
func (m *mtmOrdered) Scan(r mtm.Reader, from uint64, fn func(key uint64, val []byte) bool) {
	m.t.Scan(r, from, fn)
}
func (m *mtmOrdered) Len(r mtm.Reader) int { return m.t.Len(r) }
func (m *mtmOrdered) Do(fn func(tx *mtm.Tx) error) error {
	if m.env.Thread != nil {
		return m.env.Thread.Atomic(fn)
	}
	return m.env.TM.Atomic(fn)
}
func (m *mtmOrdered) View(fn func(r mtm.Reader) error) error {
	return m.env.TM.View(func(r *mtm.ReadTx) error { return fn(r) })
}

// modErr maps the mod package's sentinel onto the pds one so callers
// match errors.Is(err, pds.ErrNotFound) regardless of backend.
func modErr(err error) error {
	if errors.Is(err, mod.ErrNotFound) {
		return ErrNotFound
	}
	return err
}

// modSnap resolves the reader for a MOD adapter call: a *mod.Snap pins
// the caller to one snapshot; anything else (typically nil, or an mtm
// reader leaking through mixed code) reads the live structure.
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
