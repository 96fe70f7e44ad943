package pds

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mtm"
	"repro/internal/pgc"
	"repro/internal/pheap"
	"repro/internal/pmem"
	"repro/internal/region"
	"repro/internal/scm"
)

type env struct {
	dev  *scm.Device
	rt   *region.Runtime
	dir  string
	tm   *mtm.TM
	th   *mtm.Thread
	root pmem.Addr // persistent root pointer slot
}

func newEnv(t *testing.T) *env {
	t.Helper()
	dev, err := scm.Open(scm.Config{Size: 128 << 20, Mode: scm.DelayOff})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	e := &env{dev: dev, dir: dir}
	e.open(t)
	return e
}

func (e *env) open(t *testing.T) {
	t.Helper()
	rt, err := region.Open(e.dev, region.Config{Dir: e.dir})
	if err != nil {
		t.Fatal(err)
	}
	e.rt = rt
	heapPtr, created, err := rt.Static("pds.heap", 8)
	if err != nil {
		t.Fatal(err)
	}
	mem := rt.NewMemory()
	var heap *pheap.Heap
	if created || mem.LoadU64(heapPtr) == 0 {
		base, err := rt.PMapAt(heapPtr, 64<<20, 0)
		if err != nil {
			t.Fatal(err)
		}
		heap, err = pheap.Format(rt, base, 64<<20, pheap.Config{Lanes: 4})
		if err != nil {
			t.Fatal(err)
		}
	} else {
		heap, err = pheap.Open(rt, pmem.Addr(mem.LoadU64(heapPtr)))
		if err != nil {
			t.Fatal(err)
		}
	}
	tm, err := mtm.Open(rt, "pds", mtm.Config{Heap: heap, Slots: 8})
	if err != nil {
		t.Fatal(err)
	}
	e.tm = tm
	th, err := tm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	e.th = th
	root, _, err := rt.Static("pds.root", 8)
	if err != nil {
		t.Fatal(err)
	}
	e.root = root
}

// restart crashes the device and reopens everything.
func (e *env) restart(t *testing.T, policy scm.CrashPolicy) {
	t.Helper()
	e.tm.Close()
	e.dev.Crash(policy)
	if err := e.rt.Close(); err != nil {
		t.Fatal(err)
	}
	e.open(t)
}

func (e *env) atomic(t *testing.T, fn func(tx *mtm.Tx) error) {
	t.Helper()
	if err := e.th.Atomic(fn); err != nil {
		t.Fatal(err)
	}
}

// ---------- HashTable ----------

func TestHashTablePutGetDelete(t *testing.T) {
	e := newEnv(t)
	ht, err := CreateHashTable(e.th, e.root, 64)
	if err != nil {
		t.Fatal(err)
	}
	e.atomic(t, func(tx *mtm.Tx) error {
		if err := ht.Put(tx, 1, []byte("one")); err != nil {
			return err
		}
		return ht.Put(tx, 2, []byte("two"))
	})
	e.atomic(t, func(tx *mtm.Tx) error {
		v, err := ht.Get(tx, 1)
		if err != nil || string(v) != "one" {
			return fmt.Errorf("get 1 = %q, %v", v, err)
		}
		if ht.Len(tx) != 2 {
			return fmt.Errorf("len = %d", ht.Len(tx))
		}
		return nil
	})
	e.atomic(t, func(tx *mtm.Tx) error { return ht.Delete(tx, 1) })
	e.atomic(t, func(tx *mtm.Tx) error {
		if _, err := ht.Get(tx, 1); err != ErrNotFound {
			return fmt.Errorf("get deleted = %v", err)
		}
		if err := ht.Delete(tx, 1); err != ErrNotFound {
			return fmt.Errorf("double delete = %v", err)
		}
		return nil
	})
}

func TestHashTableReplaceValue(t *testing.T) {
	e := newEnv(t)
	ht, err := CreateHashTable(e.th, e.root, 16)
	if err != nil {
		t.Fatal(err)
	}
	e.atomic(t, func(tx *mtm.Tx) error { return ht.Put(tx, 7, []byte("short")) })
	e.atomic(t, func(tx *mtm.Tx) error { return ht.Put(tx, 7, bytes.Repeat([]byte("x"), 300)) })
	e.atomic(t, func(tx *mtm.Tx) error {
		v, err := ht.Get(tx, 7)
		if err != nil || len(v) != 300 {
			return fmt.Errorf("replaced value: %d bytes, %v", len(v), err)
		}
		if ht.Len(tx) != 1 {
			return fmt.Errorf("len after replace = %d", ht.Len(tx))
		}
		return nil
	})
}

func TestHashTableSurvivesCrash(t *testing.T) {
	e := newEnv(t)
	if _, err := CreateHashTable(e.th, e.root, 128); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 200; i++ {
		e.atomic(t, func(tx *mtm.Tx) error {
			ht, err := OpenHashTable(tx, e.root)
			if err != nil {
				return err
			}
			return ht.Put(tx, i, []byte(fmt.Sprintf("value-%d", i)))
		})
	}
	e.restart(t, scm.NewRandomPolicy(3))
	e.atomic(t, func(tx *mtm.Tx) error {
		ht, err := OpenHashTable(tx, e.root)
		if err != nil {
			return err
		}
		if ht.Len(tx) != 200 {
			return fmt.Errorf("len after crash = %d", ht.Len(tx))
		}
		for i := uint64(0); i < 200; i++ {
			v, err := ht.Get(tx, i)
			if err != nil || string(v) != fmt.Sprintf("value-%d", i) {
				return fmt.Errorf("key %d after crash: %q, %v", i, v, err)
			}
		}
		return nil
	})
}

func TestHashTableModelCheck(t *testing.T) {
	e := newEnv(t)
	ht, err := CreateHashTable(e.th, e.root, 32) // small: force collisions
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint64][]byte{}
	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 2000; step++ {
		k := uint64(rng.Intn(100))
		switch rng.Intn(3) {
		case 0, 1:
			v := make([]byte, rng.Intn(64))
			rng.Read(v)
			e.atomic(t, func(tx *mtm.Tx) error { return ht.Put(tx, k, v) })
			model[k] = v
		case 2:
			err := e.th.Atomic(func(tx *mtm.Tx) error { return ht.Delete(tx, k) })
			if _, ok := model[k]; ok {
				if err != nil {
					t.Fatalf("step %d: delete: %v", step, err)
				}
				delete(model, k)
			} else if err != ErrNotFound {
				t.Fatalf("step %d: delete missing: %v", step, err)
			}
		}
	}
	e.atomic(t, func(tx *mtm.Tx) error {
		if int(ht.Len(tx)) != len(model) {
			return fmt.Errorf("len = %d, model %d", ht.Len(tx), len(model))
		}
		for k, v := range model {
			got, err := ht.Get(tx, k)
			if err != nil || !bytes.Equal(got, v) {
				return fmt.Errorf("key %d mismatch", k)
			}
		}
		return nil
	})
}

// ---------- AVL ----------

func TestAVLBasic(t *testing.T) {
	e := newEnv(t)
	tree := NewAVL(e.root)
	keys := []string{"m", "c", "x", "a", "e", "p", "z", "b", "d", "n"}
	for _, k := range keys {
		k := k
		e.atomic(t, func(tx *mtm.Tx) error { return tree.Put(tx, []byte(k), []byte("v:"+k)) })
	}
	e.atomic(t, func(tx *mtm.Tx) error {
		if !tree.CheckInvariants(tx) {
			return fmt.Errorf("AVL invariants violated")
		}
		if tree.Len(tx) != len(keys) {
			return fmt.Errorf("len = %d", tree.Len(tx))
		}
		for _, k := range keys {
			v, err := tree.Get(tx, []byte(k))
			if err != nil || string(v) != "v:"+k {
				return fmt.Errorf("get %q = %q, %v", k, v, err)
			}
		}
		return nil
	})
	// Delete half, verify the rest.
	for _, k := range keys[:5] {
		k := k
		e.atomic(t, func(tx *mtm.Tx) error { return tree.Delete(tx, []byte(k)) })
	}
	e.atomic(t, func(tx *mtm.Tx) error {
		if !tree.CheckInvariants(tx) {
			return fmt.Errorf("AVL invariants violated after delete")
		}
		for _, k := range keys[:5] {
			if _, err := tree.Get(tx, []byte(k)); err != ErrNotFound {
				return fmt.Errorf("deleted %q still present", k)
			}
		}
		for _, k := range keys[5:] {
			if _, err := tree.Get(tx, []byte(k)); err != nil {
				return fmt.Errorf("survivor %q missing", k)
			}
		}
		return nil
	})
}

func TestAVLSequentialInsertStaysBalanced(t *testing.T) {
	e := newEnv(t)
	tree := NewAVL(e.root)
	const n = 1024
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("%08d", i))
		e.atomic(t, func(tx *mtm.Tx) error { return tree.Put(tx, key, nil) })
	}
	e.atomic(t, func(tx *mtm.Tx) error {
		h := tree.Height(tx)
		if h > 15 { // 1.44*log2(1024) ~ 14.4
			return fmt.Errorf("height %d too large for %d sequential inserts", h, n)
		}
		if !tree.CheckInvariants(tx) {
			return fmt.Errorf("invariants violated")
		}
		return nil
	})
}

func TestAVLModelCheckWithRestarts(t *testing.T) {
	e := newEnv(t)
	tree := NewAVL(e.root)
	model := map[string][]byte{}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 4; round++ {
		for step := 0; step < 300; step++ {
			k := fmt.Sprintf("key-%03d", rng.Intn(150))
			if rng.Intn(3) == 0 {
				err := e.th.Atomic(func(tx *mtm.Tx) error { return tree.Delete(tx, []byte(k)) })
				if _, ok := model[k]; ok {
					if err != nil {
						t.Fatal(err)
					}
					delete(model, k)
				} else if err != ErrNotFound {
					t.Fatal(err)
				}
			} else {
				v := make([]byte, rng.Intn(100))
				rng.Read(v)
				e.atomic(t, func(tx *mtm.Tx) error { return tree.Put(tx, []byte(k), v) })
				model[k] = v
			}
		}
		e.restart(t, scm.NewRandomPolicy(int64(round)))
		tree = NewAVL(e.root)
		e.atomic(t, func(tx *mtm.Tx) error {
			if !tree.CheckInvariants(tx) {
				return fmt.Errorf("round %d: invariants violated after restart", round)
			}
			if tree.Len(tx) != len(model) {
				return fmt.Errorf("round %d: len %d, model %d", round, tree.Len(tx), len(model))
			}
			for k, v := range model {
				got, err := tree.Get(tx, []byte(k))
				if err != nil || !bytes.Equal(got, v) {
					return fmt.Errorf("round %d: key %q mismatch (%v)", round, k, err)
				}
			}
			return nil
		})
	}
}

// ---------- BPTree ----------

func TestBPTreeInsertSplitGet(t *testing.T) {
	e := newEnv(t)
	tree := NewBPTree(e.root)
	const n = 2000 // forces multi-level splits at order 30
	for i := uint64(0); i < n; i++ {
		e.atomic(t, func(tx *mtm.Tx) error {
			return tree.Put(tx, i*7%n, []byte(fmt.Sprintf("v%d", i*7%n)))
		})
	}
	e.atomic(t, func(tx *mtm.Tx) error {
		if err := tree.CheckInvariants(tx); err != nil {
			return err
		}
		if got := tree.Len(tx); got != n {
			return fmt.Errorf("len = %d", got)
		}
		for i := uint64(0); i < n; i++ {
			v, err := tree.Get(tx, i)
			if err != nil || string(v) != fmt.Sprintf("v%d", i) {
				return fmt.Errorf("get %d = %q, %v", i, v, err)
			}
		}
		return nil
	})
}

func TestBPTreeScanOrder(t *testing.T) {
	e := newEnv(t)
	tree := NewBPTree(e.root)
	rng := rand.New(rand.NewSource(5))
	keys := rng.Perm(500)
	for _, k := range keys {
		k := uint64(k)
		e.atomic(t, func(tx *mtm.Tx) error { return tree.Put(tx, k, nil) })
	}
	e.atomic(t, func(tx *mtm.Tx) error {
		var got []uint64
		tree.Scan(tx, 100, func(k uint64, _ []byte) bool {
			got = append(got, k)
			return true
		})
		if len(got) != 400 {
			return fmt.Errorf("scan returned %d keys", len(got))
		}
		for i, k := range got {
			if k != uint64(100+i) {
				return fmt.Errorf("scan[%d] = %d", i, k)
			}
		}
		return nil
	})
}

func TestBPTreeDeleteAndModel(t *testing.T) {
	e := newEnv(t)
	tree := NewBPTree(e.root)
	model := map[uint64][]byte{}
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 3000; step++ {
		k := uint64(rng.Intn(400))
		if rng.Intn(3) == 0 {
			err := e.th.Atomic(func(tx *mtm.Tx) error { return tree.Delete(tx, k) })
			if _, ok := model[k]; ok {
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				delete(model, k)
			} else if err != ErrNotFound {
				t.Fatalf("step %d: %v", step, err)
			}
		} else {
			v := make([]byte, 8+rng.Intn(120))
			rng.Read(v)
			e.atomic(t, func(tx *mtm.Tx) error { return tree.Put(tx, k, v) })
			model[k] = v
		}
	}
	e.atomic(t, func(tx *mtm.Tx) error {
		if err := tree.CheckInvariants(tx); err != nil {
			return err
		}
		if tree.Len(tx) != len(model) {
			return fmt.Errorf("len %d, model %d", tree.Len(tx), len(model))
		}
		for k, v := range model {
			got, err := tree.Get(tx, k)
			if err != nil || !bytes.Equal(got, v) {
				return fmt.Errorf("key %d mismatch (%v)", k, err)
			}
		}
		return nil
	})
}

func TestBPTreeSurvivesCrash(t *testing.T) {
	e := newEnv(t)
	tree := NewBPTree(e.root)
	for i := uint64(0); i < 500; i++ {
		e.atomic(t, func(tx *mtm.Tx) error { return tree.Put(tx, i, []byte{byte(i)}) })
	}
	e.restart(t, scm.NewRandomPolicy(17))
	tree = NewBPTree(e.root)
	e.atomic(t, func(tx *mtm.Tx) error {
		if err := tree.CheckInvariants(tx); err != nil {
			return err
		}
		for i := uint64(0); i < 500; i++ {
			v, err := tree.Get(tx, i)
			if err != nil || len(v) != 1 || v[0] != byte(i) {
				return fmt.Errorf("key %d after crash: %v %v", i, v, err)
			}
		}
		return nil
	})
}

// ---------- RBTree ----------

func TestRBTreeInsertGet(t *testing.T) {
	e := newEnv(t)
	tree := NewRBTree(e.root)
	rng := rand.New(rand.NewSource(3))
	keys := rng.Perm(1000)
	for _, k := range keys {
		k := uint64(k)
		payload := []byte(fmt.Sprintf("payload-%d", k))
		e.atomic(t, func(tx *mtm.Tx) error { return tree.Insert(tx, k, payload) })
	}
	e.atomic(t, func(tx *mtm.Tx) error {
		if err := tree.CheckInvariants(tx); err != nil {
			return err
		}
		if tree.Len(tx) != 1000 {
			return fmt.Errorf("len = %d", tree.Len(tx))
		}
		for _, k := range keys[:50] {
			v, err := tree.Get(tx, uint64(k))
			if err != nil {
				return err
			}
			want := fmt.Sprintf("payload-%d", k)
			if string(v[:len(want)]) != want {
				return fmt.Errorf("payload mismatch for %d", k)
			}
		}
		return nil
	})
}

func TestRBTreeInOrderSorted(t *testing.T) {
	e := newEnv(t)
	tree := NewRBTree(e.root)
	rng := rand.New(rand.NewSource(9))
	for _, k := range rng.Perm(300) {
		k := uint64(k)
		e.atomic(t, func(tx *mtm.Tx) error { return tree.Insert(tx, k, nil) })
	}
	e.atomic(t, func(tx *mtm.Tx) error {
		prev := int64(-1)
		okOrder := true
		tree.InOrder(tx, func(k uint64, _ []byte) bool {
			if int64(k) <= prev {
				okOrder = false
			}
			prev = int64(k)
			return true
		})
		if !okOrder {
			return fmt.Errorf("in-order traversal not sorted")
		}
		return nil
	})
}

func TestRBTreeDeleteModel(t *testing.T) {
	e := newEnv(t)
	tree := NewRBTree(e.root)
	model := map[uint64]bool{}
	rng := rand.New(rand.NewSource(21))
	for step := 0; step < 4000; step++ {
		k := uint64(rng.Intn(300))
		if rng.Intn(2) == 0 {
			e.atomic(t, func(tx *mtm.Tx) error { return tree.Insert(tx, k, nil) })
			model[k] = true
		} else {
			err := e.th.Atomic(func(tx *mtm.Tx) error { return tree.Delete(tx, k) })
			if model[k] {
				if err != nil {
					t.Fatalf("step %d: delete %d: %v", step, k, err)
				}
				delete(model, k)
			} else if err != ErrNotFound {
				t.Fatalf("step %d: delete missing %d: %v", step, k, err)
			}
		}
		if step%500 == 499 {
			e.atomic(t, func(tx *mtm.Tx) error { return tree.CheckInvariants(tx) })
		}
	}
	e.atomic(t, func(tx *mtm.Tx) error {
		if err := tree.CheckInvariants(tx); err != nil {
			return err
		}
		if tree.Len(tx) != len(model) {
			return fmt.Errorf("len %d, model %d", tree.Len(tx), len(model))
		}
		return nil
	})
}

func TestRBTreeSurvivesCrash(t *testing.T) {
	e := newEnv(t)
	tree := NewRBTree(e.root)
	for i := uint64(0); i < 256; i++ {
		e.atomic(t, func(tx *mtm.Tx) error { return tree.Insert(tx, i, []byte{byte(i), 1, 2}) })
	}
	e.restart(t, scm.DropAll{})
	tree = NewRBTree(e.root)
	e.atomic(t, func(tx *mtm.Tx) error {
		if err := tree.CheckInvariants(tx); err != nil {
			return err
		}
		if tree.Len(tx) != 256 {
			return fmt.Errorf("len after crash = %d", tree.Len(tx))
		}
		return nil
	})
}

func TestRBTreePayloadTooLarge(t *testing.T) {
	e := newEnv(t)
	tree := NewRBTree(e.root)
	err := e.th.Atomic(func(tx *mtm.Tx) error {
		return tree.Insert(tx, 1, make([]byte, RBPayload+1))
	})
	if err == nil {
		t.Fatal("oversized payload accepted")
	}
}

// Concurrent use of distinct structures through the same TM.
func TestConcurrentStructures(t *testing.T) {
	e := newEnv(t)
	roots, _, err := e.rt.Static("pds.conc", 8*4)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			th, err := e.tm.NewThread()
			if err != nil {
				done <- err
				return
			}
			tree := NewBPTree(roots.Add(int64(w) * 8))
			for i := uint64(0); i < 300; i++ {
				if err := th.Atomic(func(tx *mtm.Tx) error {
					return tree.Put(tx, i, []byte{byte(w), byte(i)})
				}); err != nil {
					done <- err
					return
				}
			}
			done <- th.Atomic(func(tx *mtm.Tx) error {
				if got := tree.Len(tx); got != 300 {
					return fmt.Errorf("worker %d len = %d", w, got)
				}
				return tree.CheckInvariants(tx)
			})
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestBPTreeDeleteEverythingReleasesAllNodes(t *testing.T) {
	// With rebalancing deletes, removing every key must free every
	// node and value block: after the last delete the root pointer is
	// Nil and a conservative GC finds zero unreachable blocks beyond
	// what it can prove — i.e. nothing was leaked by the tree.
	e := newEnv(t)
	tree := NewBPTree(e.root)
	const n = 3000 // multi-level tree
	rng := rand.New(rand.NewSource(123))
	keys := rng.Perm(n)
	for _, k := range keys {
		k := uint64(k)
		e.atomic(t, func(tx *mtm.Tx) error { return tree.Put(tx, k, []byte{1, 2, 3}) })
	}
	e.atomic(t, func(tx *mtm.Tx) error { return tree.CheckInvariants(tx) })

	// Delete in a different random order, checking invariants as the
	// tree shrinks through merges and root collapses.
	del := rng.Perm(n)
	for i, k := range del {
		k := uint64(k)
		e.atomic(t, func(tx *mtm.Tx) error { return tree.Delete(tx, k) })
		if i%500 == 499 {
			e.atomic(t, func(tx *mtm.Tx) error { return tree.CheckInvariants(tx) })
		}
	}
	e.atomic(t, func(tx *mtm.Tx) error {
		if got := tx.LoadU64(e.root); got != 0 {
			return fmt.Errorf("root = %#x after deleting everything", got)
		}
		return nil
	})

	// No tree blocks may remain allocated: every allocation still live
	// in the heap must be reachable from some persistent word, and
	// since the tree is gone, a GC over the heap must find no garbage
	// (leaked nodes would show up as unreachable allocations).
	gc, err := pgc.New(e.rt, e.tm.Heap())
	if err != nil {
		t.Fatal(err)
	}
	gc.SkipRegions = []pmem.Addr{e.tm.RegionBase()}
	rep, err := gc.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Freed != 0 {
		t.Fatalf("tree leaked %d blocks (%d bytes)", rep.Freed, rep.FreedBytes)
	}
}

func TestBPTreeShrinksToSingleLevel(t *testing.T) {
	// Grow to several levels, then delete down to a handful of keys:
	// the root must collapse back to a leaf and lookups still work.
	e := newEnv(t)
	tree := NewBPTree(e.root)
	const n = 2000
	for i := uint64(0); i < n; i++ {
		e.atomic(t, func(tx *mtm.Tx) error { return tree.Put(tx, i, []byte{byte(i)}) })
	}
	for i := uint64(5); i < n; i++ {
		e.atomic(t, func(tx *mtm.Tx) error { return tree.Delete(tx, i) })
	}
	e.atomic(t, func(tx *mtm.Tx) error {
		if err := tree.CheckInvariants(tx); err != nil {
			return err
		}
		root := pmem.Addr(tx.LoadU64(e.root))
		if _, leaf := bpMeta(tx, root); !leaf {
			return fmt.Errorf("root did not collapse to a leaf")
		}
		for i := uint64(0); i < 5; i++ {
			v, err := tree.Get(tx, i)
			if err != nil || v[0] != byte(i) {
				return fmt.Errorf("survivor %d: %v %v", i, v, err)
			}
		}
		if tree.Len(tx) != 5 {
			return fmt.Errorf("len = %d", tree.Len(tx))
		}
		return nil
	})
}

// TestBPTreeUpsertGuardAndReadSet pins the single-descent guarded upsert:
// a stored value is replaced only when it starts with the guard prefix of
// its replacement, and the check reads that prefix in place — so the read
// set of an overwrite is the same whether the value it replaces holds 64
// bytes or 2048 (a Get-then-Put overwrite of a 2 KB value loaded ~260
// words just to compare a key).
func TestBPTreeUpsertGuardAndReadSet(t *testing.T) {
	e := newEnv(t)
	tree := NewBPTree(e.root)
	const guard = 2 + 16
	record := func(key string, n int) []byte {
		return append([]byte{byte(len(key)), 0}, append([]byte(key), bytes.Repeat([]byte("v"), n)...)...)
	}
	// upsert stores key's size-byte record at slot size, reporting the
	// words the descent and the guard check read.
	upsert := func(key string, size int) (reads int, err error) {
		err = e.th.Atomic(func(tx *mtm.Tx) error {
			before := tx.ReadSetLen()
			err := tree.Upsert(tx, uint64(size), record(key, 0), bytes.Repeat([]byte("v"), size), guard)
			reads = tx.ReadSetLen() - before
			return err
		})
		return reads, err
	}
	sizes := []int{64, 2048}
	for _, size := range sizes { // insert both, so every overwrite searches the same leaf
		if _, err := upsert("0123456789abcdef", size); err != nil {
			t.Fatal(err)
		}
	}
	var reads [2]int
	for i, size := range sizes {
		var err error
		if reads[i], err = upsert("0123456789abcdef", size); err != nil {
			t.Fatal(err)
		}
		// Another key's record at the same slot is refused, untouched.
		if _, err := upsert("0123456789abcdeX", size); err != ErrMismatch {
			t.Fatalf("Upsert over another key's %d-byte record: %v, want ErrMismatch", size, err)
		}
		e.th.Atomic(func(tx *mtm.Tx) error {
			v, err := tree.Find(tx, uint64(size))
			if err != nil || v.Len() != guard+size {
				t.Fatalf("Find after the refused upsert: %d bytes, %v", v.Len(), err)
			}
			tail := make([]byte, 3)
			v.Load(tail, guard-1)
			if string(tail) != "fvv" {
				t.Fatalf("stored record clobbered: ...%q", tail)
			}
			return nil
		})
	}
	if reads[0] != reads[1] || reads[1] > 16 {
		t.Fatalf("overwrite read sets: %d words over a 64 B value, %d over 2048 B; want equal and small", reads[0], reads[1])
	}
}
