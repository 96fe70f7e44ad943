package pds

import (
	"fmt"

	"repro/internal/mtm"
	"repro/internal/pmem"
)

// BPTree is a persistent B+ tree with 64-bit keys and variable-length
// values — the structure behind the Tokyo Cabinet conversion (§6.2):
// "We modified Tokyo Cabinet to allocate its B+ tree in a persistent
// region and perform updates in durable transactions."
//
// Inner nodes route by key; leaves hold pointers to out-of-line value
// blocks and are chained for range scans. Deletion rebalances: an
// underflowing node borrows from an adjacent sibling or merges with one,
// and the root collapses when a level empties, so deleting every key
// releases every node.
//
// Node layout (fits one 512-byte heap block):
//
//	0:   meta = nkeys<<1 | leaf
//	8:   next leaf (leaves only)
//	16:  keys[order]
//	16+8*order: ptrs[order+1] (children for inner, value blocks for leaves)
type BPTree struct {
	rootPtr pmem.Addr
}

// BPOrder is the fan-out: max keys per node.
const BPOrder = 30

const (
	bpMetaOff = 0
	bpNextOff = 8
	bpKeysOff = 16
	bpPtrsOff = bpKeysOff + 8*BPOrder
	bpNodeSz  = bpPtrsOff + 8*(BPOrder+1)
)

// NewBPTree wraps the B+ tree rooted at the persistent pointer rootPtr
// (pmem.Nil there means an empty tree).
func NewBPTree(rootPtr pmem.Addr) *BPTree { return &BPTree{rootPtr: rootPtr} }

func bpMeta(tx mtm.Reader, n pmem.Addr) (nkeys int, leaf bool) {
	m := tx.LoadU64(n.Add(bpMetaOff))
	return int(m >> 1), m&1 != 0
}

func bpSetMeta(tx *mtm.Tx, n pmem.Addr, nkeys int, leaf bool) {
	m := uint64(nkeys) << 1
	if leaf {
		m |= 1
	}
	tx.StoreU64(n.Add(bpMetaOff), m)
}

func bpKey(tx mtm.Reader, n pmem.Addr, i int) uint64 {
	return tx.LoadU64(n.Add(bpKeysOff + int64(i)*8))
}

func bpSetKey(tx *mtm.Tx, n pmem.Addr, i int, k uint64) {
	tx.StoreU64(n.Add(bpKeysOff+int64(i)*8), k)
}

func bpPtr(tx mtm.Reader, n pmem.Addr, i int) pmem.Addr {
	return pmem.Addr(tx.LoadU64(n.Add(bpPtrsOff + int64(i)*8)))
}

func bpSetPtr(tx *mtm.Tx, n pmem.Addr, i int, p pmem.Addr) {
	tx.StoreU64(n.Add(bpPtrsOff+int64(i)*8), uint64(p))
}

func bpNewNode(tx *mtm.Tx, leaf bool) (pmem.Addr, error) {
	n, err := tx.Alloc(bpNodeSz)
	if err != nil {
		return pmem.Nil, err
	}
	bpSetMeta(tx, n, 0, leaf)
	tx.StoreU64(n.Add(bpNextOff), 0)
	return n, nil
}

// bpSearch returns the index of the first key >= k, in [0, nkeys].
func bpSearch(tx mtm.Reader, n pmem.Addr, nkeys int, k uint64) int {
	lo, hi := 0, nkeys
	for lo < hi {
		mid := (lo + hi) / 2
		if bpKey(tx, n, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Put inserts or replaces the value for key.
func (t *BPTree) Put(tx *mtm.Tx, key uint64, val []byte) error {
	return t.Upsert(tx, key, val, nil, 0)
}

// Upsert inserts or replaces the value for key — head followed by tail —
// in one descent. A stored value is replaced only if its first guard bytes
// equal head's; otherwise the tree is untouched and the error is
// ErrMismatch. The compare reads the stored prefix in place, so an
// overwrite's read set does not grow with the value it replaces.
func (t *BPTree) Upsert(tx *mtm.Tx, key uint64, head, tail []byte, guard int) error {
	root := pmem.Addr(tx.LoadU64(t.rootPtr))
	if root == pmem.Nil {
		leaf, err := bpNewNode(tx, true)
		if err != nil {
			return err
		}
		vblk, err := writeValue(tx, head, tail)
		if err != nil {
			return err
		}
		bpSetKey(tx, leaf, 0, key)
		bpSetPtr(tx, leaf, 0, vblk)
		bpSetMeta(tx, leaf, 1, true)
		tx.StoreU64(t.rootPtr, uint64(leaf))
		return nil
	}
	midKey, sib, err := t.insert(tx, root, key, head, tail, guard)
	if err != nil {
		return err
	}
	if sib != pmem.Nil {
		// Root split: grow the tree by one level.
		newRoot, err := bpNewNode(tx, false)
		if err != nil {
			return err
		}
		bpSetKey(tx, newRoot, 0, midKey)
		bpSetPtr(tx, newRoot, 0, root)
		bpSetPtr(tx, newRoot, 1, sib)
		bpSetMeta(tx, newRoot, 1, false)
		tx.StoreU64(t.rootPtr, uint64(newRoot))
	}
	return nil
}

// insert descends to the leaf; on overflow it splits, returning the
// separator key and the new right sibling for the parent to link.
func (t *BPTree) insert(tx *mtm.Tx, n pmem.Addr, key uint64, head, tail []byte, guard int) (uint64, pmem.Addr, error) {
	nkeys, leaf := bpMeta(tx, n)
	if leaf {
		i := bpSearch(tx, n, nkeys, key)
		if i < nkeys && bpKey(tx, n, i) == key {
			// Replace the value block in place.
			old := bpPtr(tx, n, i)
			if !hasPrefix(tx, old, head[:guard]) {
				return 0, pmem.Nil, ErrMismatch
			}
			vblk, err := writeValue(tx, head, tail)
			if err != nil {
				return 0, pmem.Nil, err
			}
			bpSetPtr(tx, n, i, vblk)
			if err := tx.FreeBlock(old); err != nil {
				return 0, pmem.Nil, err
			}
			return 0, pmem.Nil, nil
		}
		vblk, err := writeValue(tx, head, tail)
		if err != nil {
			return 0, pmem.Nil, err
		}
		for j := nkeys; j > i; j-- {
			bpSetKey(tx, n, j, bpKey(tx, n, j-1))
			bpSetPtr(tx, n, j, bpPtr(tx, n, j-1))
		}
		bpSetKey(tx, n, i, key)
		bpSetPtr(tx, n, i, vblk)
		nkeys++
		bpSetMeta(tx, n, nkeys, true)
		if nkeys < BPOrder {
			return 0, pmem.Nil, nil
		}
		return t.splitLeaf(tx, n, nkeys)
	}

	i := bpSearch(tx, n, nkeys, key)
	if i < nkeys && bpKey(tx, n, i) == key {
		i++ // equal keys route right of the separator
	}
	child := bpPtr(tx, n, i)
	midKey, sib, err := t.insert(tx, child, key, head, tail, guard)
	if err != nil || sib == pmem.Nil {
		return 0, pmem.Nil, err
	}
	// Link the split child's sibling after slot i.
	for j := nkeys; j > i; j-- {
		bpSetKey(tx, n, j, bpKey(tx, n, j-1))
		bpSetPtr(tx, n, j+1, bpPtr(tx, n, j))
	}
	bpSetKey(tx, n, i, midKey)
	bpSetPtr(tx, n, i+1, sib)
	nkeys++
	bpSetMeta(tx, n, nkeys, false)
	if nkeys < BPOrder {
		return 0, pmem.Nil, nil
	}
	return t.splitInner(tx, n, nkeys)
}

func (t *BPTree) splitLeaf(tx *mtm.Tx, n pmem.Addr, nkeys int) (uint64, pmem.Addr, error) {
	sib, err := bpNewNode(tx, true)
	if err != nil {
		return 0, pmem.Nil, err
	}
	half := nkeys / 2
	for j := half; j < nkeys; j++ {
		bpSetKey(tx, sib, j-half, bpKey(tx, n, j))
		bpSetPtr(tx, sib, j-half, bpPtr(tx, n, j))
	}
	bpSetMeta(tx, sib, nkeys-half, true)
	tx.StoreU64(sib.Add(bpNextOff), tx.LoadU64(n.Add(bpNextOff)))
	tx.StoreU64(n.Add(bpNextOff), uint64(sib))
	bpSetMeta(tx, n, half, true)
	return bpKey(tx, sib, 0), sib, nil
}

func (t *BPTree) splitInner(tx *mtm.Tx, n pmem.Addr, nkeys int) (uint64, pmem.Addr, error) {
	sib, err := bpNewNode(tx, false)
	if err != nil {
		return 0, pmem.Nil, err
	}
	half := nkeys / 2
	midKey := bpKey(tx, n, half)
	for j := half + 1; j < nkeys; j++ {
		bpSetKey(tx, sib, j-half-1, bpKey(tx, n, j))
		bpSetPtr(tx, sib, j-half-1, bpPtr(tx, n, j))
	}
	bpSetPtr(tx, sib, nkeys-half-1, bpPtr(tx, n, nkeys))
	bpSetMeta(tx, sib, nkeys-half-1, false)
	bpSetMeta(tx, n, half, false)
	return midKey, sib, nil
}

// Get returns a copy of the value for key.
func (t *BPTree) Get(tx mtm.Reader, key uint64) ([]byte, error) {
	v, err := t.Find(tx, key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, v.Len())
	v.Load(out, 0)
	return out, nil
}

// Find locates the value for key without copying it.
func (t *BPTree) Find(tx mtm.Reader, key uint64) (Stored, error) {
	n := pmem.Addr(tx.LoadU64(t.rootPtr))
	if n == pmem.Nil {
		return Stored{}, ErrNotFound
	}
	for {
		nkeys, leaf := bpMeta(tx, n)
		i := bpSearch(tx, n, nkeys, key)
		if leaf {
			if i < nkeys && bpKey(tx, n, i) == key {
				return findValue(tx, bpPtr(tx, n, i))
			}
			return Stored{}, ErrNotFound
		}
		if i < nkeys && bpKey(tx, n, i) == key {
			i++
		}
		n = bpPtr(tx, n, i)
	}
}

// bpMinKeys is the minimum occupancy of every non-root node after a
// delete; underflowing nodes borrow from or merge with a sibling.
const bpMinKeys = BPOrder/2 - 1

// Delete removes key, freeing its value block, rebalancing underflowing
// nodes (borrow from a sibling, else merge) and shrinking the root when a
// level empties. A tree whose every key is deleted releases every node.
func (t *BPTree) Delete(tx *mtm.Tx, key uint64) error {
	root := pmem.Addr(tx.LoadU64(t.rootPtr))
	if root == pmem.Nil {
		return ErrNotFound
	}
	found, _, err := t.del(tx, root, key)
	if err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	// Shrink the root: an empty inner root is replaced by its only
	// child; an empty leaf root empties the tree.
	nkeys, leaf := bpMeta(tx, root)
	if nkeys == 0 {
		if leaf {
			tx.StoreU64(t.rootPtr, 0)
		} else {
			tx.StoreU64(t.rootPtr, uint64(bpPtr(tx, root, 0)))
		}
		return tx.FreeBlock(root)
	}
	return nil
}

// del removes key from the subtree at n, reporting whether n underflowed.
func (t *BPTree) del(tx *mtm.Tx, n pmem.Addr, key uint64) (found, underflow bool, err error) {
	nkeys, leaf := bpMeta(tx, n)
	i := bpSearch(tx, n, nkeys, key)
	if leaf {
		if i >= nkeys || bpKey(tx, n, i) != key {
			return false, false, nil
		}
		if err := tx.FreeBlock(bpPtr(tx, n, i)); err != nil {
			return false, false, err
		}
		for j := i; j < nkeys-1; j++ {
			bpSetKey(tx, n, j, bpKey(tx, n, j+1))
			bpSetPtr(tx, n, j, bpPtr(tx, n, j+1))
		}
		nkeys--
		bpSetMeta(tx, n, nkeys, true)
		return true, nkeys < bpMinKeys, nil
	}

	ci := i
	if i < nkeys && bpKey(tx, n, i) == key {
		ci++
	}
	found, childUf, err := t.del(tx, bpPtr(tx, n, ci), key)
	if err != nil || !childUf {
		return found, false, err
	}
	if err := t.fixChild(tx, n, ci); err != nil {
		return false, false, err
	}
	nkeys, _ = bpMeta(tx, n)
	return found, nkeys < bpMinKeys, nil
}

// fixChild restores minimum occupancy of child ci of inner node n by
// borrowing from an adjacent sibling or merging with one.
func (t *BPTree) fixChild(tx *mtm.Tx, n pmem.Addr, ci int) error {
	nkeys, _ := bpMeta(tx, n)
	child := bpPtr(tx, n, ci)
	cn, cleaf := bpMeta(tx, child)

	if ci > 0 {
		left := bpPtr(tx, n, ci-1)
		ln, _ := bpMeta(tx, left)
		if ln > bpMinKeys {
			// Borrow the left sibling's last entry.
			for j := cn; j > 0; j-- {
				bpSetKey(tx, child, j, bpKey(tx, child, j-1))
			}
			if cleaf {
				for j := cn; j > 0; j-- {
					bpSetPtr(tx, child, j, bpPtr(tx, child, j-1))
				}
				bpSetKey(tx, child, 0, bpKey(tx, left, ln-1))
				bpSetPtr(tx, child, 0, bpPtr(tx, left, ln-1))
				bpSetKey(tx, n, ci-1, bpKey(tx, child, 0))
			} else {
				for j := cn + 1; j > 0; j-- {
					bpSetPtr(tx, child, j, bpPtr(tx, child, j-1))
				}
				// Rotate through the separator.
				bpSetKey(tx, child, 0, bpKey(tx, n, ci-1))
				bpSetPtr(tx, child, 0, bpPtr(tx, left, ln))
				bpSetKey(tx, n, ci-1, bpKey(tx, left, ln-1))
			}
			bpSetMeta(tx, child, cn+1, cleaf)
			bpSetMeta(tx, left, ln-1, cleaf)
			return nil
		}
	}
	if ci < nkeys {
		right := bpPtr(tx, n, ci+1)
		rn, _ := bpMeta(tx, right)
		if rn > bpMinKeys {
			// Borrow the right sibling's first entry.
			if cleaf {
				bpSetKey(tx, child, cn, bpKey(tx, right, 0))
				bpSetPtr(tx, child, cn, bpPtr(tx, right, 0))
				for j := 0; j < rn-1; j++ {
					bpSetKey(tx, right, j, bpKey(tx, right, j+1))
					bpSetPtr(tx, right, j, bpPtr(tx, right, j+1))
				}
				bpSetKey(tx, n, ci, bpKey(tx, right, 0))
			} else {
				bpSetKey(tx, child, cn, bpKey(tx, n, ci))
				bpSetPtr(tx, child, cn+1, bpPtr(tx, right, 0))
				bpSetKey(tx, n, ci, bpKey(tx, right, 0))
				for j := 0; j < rn-1; j++ {
					bpSetKey(tx, right, j, bpKey(tx, right, j+1))
					bpSetPtr(tx, right, j, bpPtr(tx, right, j+1))
				}
				bpSetPtr(tx, right, rn-1, bpPtr(tx, right, rn))
			}
			bpSetMeta(tx, child, cn+1, cleaf)
			bpSetMeta(tx, right, rn-1, cleaf)
			return nil
		}
	}

	// Merge with a sibling: always right-into-left so the leaf chain
	// only needs the left node's next pointer updated.
	li := ci - 1
	if ci == 0 {
		li = 0 // merge child with its right sibling; child is "left"
	}
	left := bpPtr(tx, n, li)
	right := bpPtr(tx, n, li+1)
	ln, lleaf := bpMeta(tx, left)
	rn, _ := bpMeta(tx, right)
	if lleaf {
		for j := 0; j < rn; j++ {
			bpSetKey(tx, left, ln+j, bpKey(tx, right, j))
			bpSetPtr(tx, left, ln+j, bpPtr(tx, right, j))
		}
		bpSetMeta(tx, left, ln+rn, true)
		tx.StoreU64(left.Add(bpNextOff), tx.LoadU64(right.Add(bpNextOff)))
	} else {
		// The separator key comes down between the runs.
		bpSetKey(tx, left, ln, bpKey(tx, n, li))
		for j := 0; j < rn; j++ {
			bpSetKey(tx, left, ln+1+j, bpKey(tx, right, j))
			bpSetPtr(tx, left, ln+1+j, bpPtr(tx, right, j))
		}
		bpSetPtr(tx, left, ln+1+rn, bpPtr(tx, right, rn))
		bpSetMeta(tx, left, ln+1+rn, false)
	}
	// Remove separator li and child pointer li+1 from n.
	for j := li; j < nkeys-1; j++ {
		bpSetKey(tx, n, j, bpKey(tx, n, j+1))
		bpSetPtr(tx, n, j+1, bpPtr(tx, n, j+2))
	}
	bpSetMeta(tx, n, nkeys-1, false)
	return tx.FreeBlock(right)
}

// Contains reports whether key is present without copying its value.
func (t *BPTree) Contains(tx mtm.Reader, key uint64) bool {
	n := pmem.Addr(tx.LoadU64(t.rootPtr))
	if n == pmem.Nil {
		return false
	}
	for {
		nkeys, leaf := bpMeta(tx, n)
		i := bpSearch(tx, n, nkeys, key)
		if leaf {
			return i < nkeys && bpKey(tx, n, i) == key
		}
		if i < nkeys && bpKey(tx, n, i) == key {
			i++
		}
		n = bpPtr(tx, n, i)
	}
}

// Scan calls fn for every key >= from in ascending order until fn returns
// false, following the leaf chain.
func (t *BPTree) Scan(tx mtm.Reader, from uint64, fn func(key uint64, val []byte) bool) {
	n := pmem.Addr(tx.LoadU64(t.rootPtr))
	if n == pmem.Nil {
		return
	}
	for {
		nkeys, leaf := bpMeta(tx, n)
		if leaf {
			break
		}
		i := bpSearch(tx, n, nkeys, from)
		if i < nkeys && bpKey(tx, n, i) == from {
			i++
		}
		n = bpPtr(tx, n, i)
	}
	for n != pmem.Nil {
		nkeys, _ := bpMeta(tx, n)
		for i := bpSearch(tx, n, nkeys, from); i < nkeys; i++ {
			val, err := readValue(tx, bpPtr(tx, n, i))
			if err != nil {
				// A scan has no error channel; a corrupt length prefix here
				// is structural damage, same class as a torn node.
				panic(fmt.Sprintf("pds: bptree scan at key %#x: %v", bpKey(tx, n, i), err))
			}
			if !fn(bpKey(tx, n, i), val) {
				return
			}
		}
		n = pmem.Addr(tx.LoadU64(n.Add(bpNextOff)))
	}
}

// CheckInvariants verifies key ordering within and across nodes and that
// inner separators route correctly. Returns an error describing the first
// violation (used by property tests).
func (t *BPTree) CheckInvariants(tx mtm.Reader) error {
	root := pmem.Addr(tx.LoadU64(t.rootPtr))
	if root == pmem.Nil {
		return nil
	}
	var walk func(n pmem.Addr, lo, hi uint64, hasLo, hasHi bool, isRoot bool) error
	walk = func(n pmem.Addr, lo, hi uint64, hasLo, hasHi bool, isRoot bool) error {
		nkeys, leaf := bpMeta(tx, n)
		if nkeys > BPOrder {
			return fmt.Errorf("pds: node %v has %d keys", n, nkeys)
		}
		if !isRoot && nkeys < bpMinKeys {
			return fmt.Errorf("pds: node %v underflow (%d < %d keys)", n, nkeys, bpMinKeys)
		}
		var prev uint64
		for i := 0; i < nkeys; i++ {
			k := bpKey(tx, n, i)
			if i > 0 && k <= prev {
				return fmt.Errorf("pds: node %v keys out of order", n)
			}
			if hasLo && k < lo {
				return fmt.Errorf("pds: node %v key %d below bound", n, k)
			}
			if hasHi && k >= hi {
				return fmt.Errorf("pds: node %v key %d above bound", n, k)
			}
			prev = k
		}
		if leaf {
			return nil
		}
		for i := 0; i <= nkeys; i++ {
			clo, chi := lo, hi
			cHasLo, cHasHi := hasLo, hasHi
			if i > 0 {
				clo, cHasLo = bpKey(tx, n, i-1), true
			}
			if i < nkeys {
				chi, cHasHi = bpKey(tx, n, i), true
			}
			if err := walk(bpPtr(tx, n, i), clo, chi, cHasLo, cHasHi, false); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root, 0, 0, false, false, true)
}

// Len counts entries via a full scan (for tests).
func (t *BPTree) Len(tx mtm.Reader) int {
	n := 0
	t.Scan(tx, 0, func(uint64, []byte) bool { n++; return true })
	return n
}
