package pds

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/mtm"
	"repro/internal/pheap"
	"repro/internal/pmem"
	"repro/internal/region"
	"repro/internal/scm"
)

// benv hosts both backends over one device: the mtm stack for
// BackendMTM and the raw runtime/heap handles for BackendMOD.
type benv struct {
	dev  *scm.Device
	dir  string
	rt   *region.Runtime
	heap *pheap.Heap
	tm   *mtm.TM
	th   *mtm.Thread

	rootMTM pmem.Addr
	rootMOD pmem.Addr
}

func newBEnv(t *testing.T) *benv {
	t.Helper()
	dev, err := scm.Open(scm.Config{Size: 128 << 20, Mode: scm.DelayOff})
	if err != nil {
		t.Fatal(err)
	}
	e := &benv{dev: dev, dir: t.TempDir()}
	e.open(t)
	return e
}

func (e *benv) open(t *testing.T) {
	t.Helper()
	rt, err := region.Open(e.dev, region.Config{Dir: e.dir})
	if err != nil {
		t.Fatal(err)
	}
	e.rt = rt
	heapPtr, _, err := rt.Static("pds.backend.heap", 8)
	if err != nil {
		t.Fatal(err)
	}
	mem := rt.NewMemory()
	if mem.LoadU64(heapPtr) == 0 {
		base, err := rt.PMapAt(heapPtr, 64<<20, 0)
		if err != nil {
			t.Fatal(err)
		}
		e.heap, err = pheap.Format(rt, base, 64<<20, pheap.Config{Lanes: 4})
		if err != nil {
			t.Fatal(err)
		}
	} else {
		e.heap, err = pheap.Open(rt, pmem.Addr(mem.LoadU64(heapPtr)))
		if err != nil {
			t.Fatal(err)
		}
	}
	e.tm, err = mtm.Open(rt, "pds", mtm.Config{Heap: e.heap, Slots: 8})
	if err != nil {
		t.Fatal(err)
	}
	e.th, err = e.tm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	if e.rootMTM, _, err = rt.Static("pds.backend.mtm", 8); err != nil {
		t.Fatal(err)
	}
	if e.rootMOD, _, err = rt.Static("pds.backend.mod", 8); err != nil {
		t.Fatal(err)
	}
}

func (e *benv) restart(t *testing.T, policy scm.CrashPolicy) {
	t.Helper()
	e.tm.Close()
	e.dev.Crash(policy)
	if err := e.rt.Close(); err != nil {
		t.Fatal(err)
	}
	e.open(t)
}

func (e *benv) maps(t *testing.T) (OrderedMap, OrderedMap) {
	t.Helper()
	mtmMap, err := NewOrderedMap(BackendMTM, Env{TM: e.tm, Thread: e.th}, e.rootMTM)
	if err != nil {
		t.Fatal(err)
	}
	modMap, err := NewOrderedMap(BackendMOD, Env{RT: e.rt, Heap: e.heap}, e.rootMOD)
	if err != nil {
		t.Fatal(err)
	}
	return mtmMap, modMap
}

// dumpOrdered reads the full observable state through the interface.
func dumpOrdered(t *testing.T, m OrderedMap) (map[uint64][]byte, int) {
	t.Helper()
	out := make(map[uint64][]byte)
	n := 0
	if err := m.View(func(r mtm.Reader) error {
		m.Scan(r, 0, func(k uint64, v []byte) bool {
			out[k] = append([]byte(nil), v...)
			return true
		})
		n = m.Len(r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out, n
}

func diffStates(t *testing.T, tag string, model map[uint64][]byte, a, b OrderedMap) {
	t.Helper()
	for name, m := range map[string]OrderedMap{"mtm": a, "mod": b} {
		got, n := dumpOrdered(t, m)
		if len(got) != len(model) || n != len(model) {
			t.Fatalf("%s: %s backend has %d keys (Len %d), model %d",
				tag, name, len(got), n, len(model))
		}
		for k, v := range model {
			if !bytes.Equal(got[k], v) {
				t.Fatalf("%s: %s backend key %d = %q, model %q", tag, name, k, got[k], v)
			}
		}
	}
}

// TestBackendDifferential drives one randomized operation sequence
// through both backends and a volatile model, asserting identical
// observable state after every operation and again after crash and
// recovery.
func TestBackendDifferential(t *testing.T) {
	e := newBEnv(t)
	mtmM, modM := e.maps(t)
	model := map[uint64][]byte{}
	rng := rand.New(rand.NewSource(7))

	const ops = 300
	applyBoth := func(i int, key uint64, put bool, val []byte) {
		var errMTM, errMOD error
		if put {
			// Every third put is guarded on its first bytes: refused, by
			// both backends alike, over a value that starts differently.
			guard := 0
			if old, live := model[key]; i%3 == 0 && len(val) >= 4 {
				if guard = 2; live && len(old) >= 2 && i%2 == 0 {
					copy(val, old[:2])
				}
				if live && !bytes.HasPrefix(old, val[:2]) {
					errMTM = mtmM.Do(func(tx *mtm.Tx) error { return mtmM.Upsert(tx, key, val[:len(val)/2], val[len(val)/2:], guard) })
					errMOD = modM.Do(func(tx *mtm.Tx) error { return modM.Upsert(tx, key, val[:len(val)/2], val[len(val)/2:], guard) })
					if errMTM != ErrMismatch || errMOD != ErrMismatch {
						t.Fatalf("op %d: guarded put over a mismatching value: mtm=%v mod=%v", i, errMTM, errMOD)
					}
					return
				}
			}
			errMTM = mtmM.Do(func(tx *mtm.Tx) error { return mtmM.Upsert(tx, key, val[:len(val)/2], val[len(val)/2:], guard) })
			errMOD = modM.Do(func(tx *mtm.Tx) error { return modM.Upsert(tx, key, val[:len(val)/2], val[len(val)/2:], guard) })
			model[key] = val
		} else {
			errMTM = mtmM.Do(func(tx *mtm.Tx) error { return mtmM.Delete(tx, key) })
			errMOD = modM.Do(func(tx *mtm.Tx) error { return modM.Delete(tx, key) })
			if _, ok := model[key]; ok {
				if errMTM != nil || errMOD != nil {
					t.Fatalf("op %d: delete of live key %d: mtm=%v mod=%v", i, key, errMTM, errMOD)
				}
			} else if errMTM != ErrNotFound || errMOD != ErrNotFound {
				t.Fatalf("op %d: delete of absent key %d: mtm=%v mod=%v", i, key, errMTM, errMOD)
			}
			delete(model, key)
			return
		}
		if errMTM != nil || errMOD != nil {
			t.Fatalf("op %d: put %d: mtm=%v mod=%v", i, key, errMTM, errMOD)
		}
	}

	for i := 0; i < ops; i++ {
		key := uint64(rng.Intn(48))
		switch rng.Intn(4) {
		case 0:
			applyBoth(i, key, false, nil)
		default:
			n := rng.Intn(200)
			if rng.Intn(20) == 0 {
				n = 4096 + rng.Intn(4096) // MOD indirect-value path
			}
			val := make([]byte, n)
			rng.Read(val)
			applyBoth(i, key, true, val)
		}
		// Point reads after every op; full dumps periodically (the dump
		// is O(n) and the point reads already pin the touched key).
		want, live := model[key]
		for name, m := range map[string]OrderedMap{"mtm": mtmM, "mod": modM} {
			if err := m.View(func(r mtm.Reader) error {
				got, err := m.Get(r, key)
				if live && (err != nil || !bytes.Equal(got, want)) {
					return fmt.Errorf("get %d = %q, %v, want %q", key, got, err, want)
				}
				// Find sees the same value without handing over a copy.
				v, ferr := m.Find(r, key)
				if ferr != err || v.Len() != len(got) {
					return fmt.Errorf("find %d = %d bytes, %v; get = %d bytes, %v", key, v.Len(), ferr, len(got), err)
				}
				tail := make([]byte, v.Len()/2)
				v.Load(tail, v.Len()-len(tail))
				if !bytes.HasSuffix(got, tail) {
					return fmt.Errorf("find %d loads %q at %d of %q", key, tail, v.Len()-len(tail), got)
				}
				if !live && err != ErrNotFound {
					return fmt.Errorf("get deleted %d = %v", key, err)
				}
				return nil
			}); err != nil {
				t.Fatalf("op %d: %s: %v", i, name, err)
			}
		}
		if i%25 == 24 {
			diffStates(t, fmt.Sprintf("op %d", i), model, mtmM, modM)
		}
	}
	diffStates(t, "final", model, mtmM, modM)

	// Crash and recover. MOD durability is buffered (the last root swap
	// may still be in the write-combining buffer), so the differential
	// contract across a crash needs the explicit durability point.
	modM.(*modOrdered).m.Sync()
	for _, policy := range []scm.CrashPolicy{scm.DropAll{}, scm.KeepAll{}} {
		e.restart(t, policy)
		mtmM, modM = e.maps(t)
		diffStates(t, fmt.Sprintf("after crash (%T)", policy), model, mtmM, modM)
	}
}

// TestModViewersVsWriterRace is the race-enabled soak: snapshot readers
// traverse a MOD map through the interface View while a writer commits,
// a crash+recovery interrupts the test midway, and the soak resumes on
// the recovered map. Run with -race.
func TestModViewersVsWriterRace(t *testing.T) {
	e := newBEnv(t)
	_, modM := e.maps(t)

	soak := func(m OrderedMap, seed int64, d time.Duration) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // writer
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := uint64(rng.Intn(64))
				if rng.Intn(3) == 0 {
					err := m.Delete(nil, key)
					if err != nil && err != ErrNotFound {
						t.Errorf("writer delete: %v", err)
						return
					}
				} else if err := m.Put(nil, key, []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Errorf("writer put: %v", err)
					return
				}
			}
		}()
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) { // snapshot readers
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := m.View(func(rd mtm.Reader) error {
						// Within one snapshot, Len and Scan must agree
						// no matter what the writer is doing.
						n := 0
						m.Scan(rd, 0, func(k uint64, v []byte) bool {
							n++
							return true
						})
						if l := m.Len(rd); l != n {
							return fmt.Errorf("snapshot scan saw %d keys, Len says %d", n, l)
						}
						return nil
					}); err != nil {
						t.Errorf("reader %d: %v", r, err)
						return
					}
				}
			}(r)
		}
		time.Sleep(d)
		close(stop)
		wg.Wait()
	}

	d := 300 * time.Millisecond
	if testing.Short() {
		d = 50 * time.Millisecond
	}
	soak(modM, 1, d)

	// Mid-test crash: quiesce, force durability, power-cycle, resume the
	// soak on the recovered structure.
	modM.(*modOrdered).m.Sync()
	before, _ := dumpOrdered(t, modM)
	e.restart(t, scm.DropAll{})
	_, modM = e.maps(t)
	after, _ := dumpOrdered(t, modM)
	if len(before) != len(after) {
		t.Fatalf("crash lost synced state: %d keys before, %d after", len(before), len(after))
	}
	for k, v := range before {
		if !bytes.Equal(after[k], v) {
			t.Fatalf("key %d: %q before crash, %q after", k, v, after[k])
		}
	}
	soak(modM, 2, d)
}
