package pds

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/mtm"
	"repro/internal/pmem"
)

// AVL is a persistent AVL tree with byte-string keys and variable-length
// values. This is the structure the paper's OpenLDAP conversion makes
// persistent: "The cache is organized using an AVL tree, which we make
// persistent by allocating nodes with pmalloc and placing atomic blocks
// around updates" (§6.2).
//
// Node layout: left(8) right(8) height(8) klen(8) vblk(8) key bytes.
// Values live in out-of-line value blocks so replacing a value never moves
// the node.
type AVL struct {
	rootPtr pmem.Addr // persistent pointer to the root node
}

const (
	avlLeftOff   = 0
	avlRightOff  = 8
	avlHeightOff = 16
	avlKlenOff   = 24
	avlVblkOff   = 32
	avlKeyOff    = 40
)

// NewAVL wraps the AVL tree rooted at the persistent pointer rootPtr
// (pmem.Nil there means an empty tree).
func NewAVL(rootPtr pmem.Addr) *AVL { return &AVL{rootPtr: rootPtr} }

func avlKey(tx mtm.Reader, node pmem.Addr) []byte {
	n := int64(tx.LoadU64(node.Add(avlKlenOff)))
	k := make([]byte, n)
	if n > 0 {
		tx.Load(k, node.Add(avlKeyOff))
	}
	return k
}

func avlHeight(tx mtm.Reader, node pmem.Addr) int64 {
	if node == pmem.Nil {
		return 0
	}
	return int64(tx.LoadU64(node.Add(avlHeightOff)))
}

func avlFix(tx *mtm.Tx, node pmem.Addr) {
	l := avlHeight(tx, pmem.Addr(tx.LoadU64(node.Add(avlLeftOff))))
	r := avlHeight(tx, pmem.Addr(tx.LoadU64(node.Add(avlRightOff))))
	h := l
	if r > h {
		h = r
	}
	// Only write when the height actually changes: unconditional stores
	// would write-lock every ancestor on every insert, serializing
	// concurrent updates to disjoint subtrees.
	if int64(tx.LoadU64(node.Add(avlHeightOff))) != h+1 {
		tx.StoreU64(node.Add(avlHeightOff), uint64(h+1))
	}
}

func avlBalance(tx mtm.Reader, node pmem.Addr) int64 {
	l := avlHeight(tx, pmem.Addr(tx.LoadU64(node.Add(avlLeftOff))))
	r := avlHeight(tx, pmem.Addr(tx.LoadU64(node.Add(avlRightOff))))
	return l - r
}

// rotate performs a single rotation at *link. dir=left rotates left
// (right child rises), dir=right rotates right.
func avlRotateLeft(tx *mtm.Tx, link pmem.Addr) {
	node := pmem.Addr(tx.LoadU64(link))
	r := pmem.Addr(tx.LoadU64(node.Add(avlRightOff)))
	rl := tx.LoadU64(r.Add(avlLeftOff))
	tx.StoreU64(node.Add(avlRightOff), rl)
	tx.StoreU64(r.Add(avlLeftOff), uint64(node))
	tx.StoreU64(link, uint64(r))
	avlFix(tx, node)
	avlFix(tx, r)
}

func avlRotateRight(tx *mtm.Tx, link pmem.Addr) {
	node := pmem.Addr(tx.LoadU64(link))
	l := pmem.Addr(tx.LoadU64(node.Add(avlLeftOff)))
	lr := tx.LoadU64(l.Add(avlRightOff))
	tx.StoreU64(node.Add(avlLeftOff), lr)
	tx.StoreU64(l.Add(avlRightOff), uint64(node))
	tx.StoreU64(link, uint64(l))
	avlFix(tx, node)
	avlFix(tx, l)
}

// rebalance restores the AVL invariant at *link after an insert or delete
// below it.
func avlRebalance(tx *mtm.Tx, link pmem.Addr) {
	node := pmem.Addr(tx.LoadU64(link))
	if node == pmem.Nil {
		return
	}
	avlFix(tx, node)
	switch b := avlBalance(tx, node); {
	case b > 1:
		left := pmem.Addr(tx.LoadU64(node.Add(avlLeftOff)))
		if avlBalance(tx, left) < 0 {
			avlRotateLeft(tx, node.Add(avlLeftOff))
		}
		avlRotateRight(tx, link)
	case b < -1:
		right := pmem.Addr(tx.LoadU64(node.Add(avlRightOff)))
		if avlBalance(tx, right) > 0 {
			avlRotateRight(tx, node.Add(avlRightOff))
		}
		avlRotateLeft(tx, link)
	}
}

// Put inserts or replaces the value for key.
func (t *AVL) Put(tx *mtm.Tx, key, val []byte) error {
	if len(key) == 0 {
		return errors.New("pds: empty AVL key")
	}
	_, err := t.put(tx, t.rootPtr, key, val)
	return err
}

func (t *AVL) put(tx *mtm.Tx, link pmem.Addr, key, val []byte) (grew bool, err error) {
	node := pmem.Addr(tx.LoadU64(link))
	if node == pmem.Nil {
		n, err := tx.Alloc(avlKeyOff + int64(len(key)))
		if err != nil {
			return false, err
		}
		vblk, err := writeValue(tx, val, nil)
		if err != nil {
			return false, err
		}
		tx.StoreU64(n.Add(avlLeftOff), 0)
		tx.StoreU64(n.Add(avlRightOff), 0)
		tx.StoreU64(n.Add(avlHeightOff), 1)
		tx.StoreU64(n.Add(avlKlenOff), uint64(len(key)))
		tx.StoreU64(n.Add(avlVblkOff), uint64(vblk))
		tx.Store(n.Add(avlKeyOff), key)
		tx.StoreU64(link, uint64(n))
		return true, nil
	}
	switch cmp := bytes.Compare(key, avlKey(tx, node)); {
	case cmp == 0:
		// Replace the value block.
		old := pmem.Addr(tx.LoadU64(node.Add(avlVblkOff)))
		vblk, err := writeValue(tx, val, nil)
		if err != nil {
			return false, err
		}
		tx.StoreU64(node.Add(avlVblkOff), uint64(vblk))
		if old != pmem.Nil {
			if err := tx.FreeBlock(old); err != nil {
				return false, err
			}
		}
		return false, nil
	case cmp < 0:
		grew, err = t.put(tx, node.Add(avlLeftOff), key, val)
	default:
		grew, err = t.put(tx, node.Add(avlRightOff), key, val)
	}
	if err != nil {
		return false, err
	}
	if grew {
		avlRebalance(tx, link)
	}
	return grew, nil
}

// Get returns a copy of the value for key.
func (t *AVL) Get(tx mtm.Reader, key []byte) ([]byte, error) {
	node := pmem.Addr(tx.LoadU64(t.rootPtr))
	for node != pmem.Nil {
		switch cmp := bytes.Compare(key, avlKey(tx, node)); {
		case cmp == 0:
			return readValue(tx, pmem.Addr(tx.LoadU64(node.Add(avlVblkOff))))
		case cmp < 0:
			node = pmem.Addr(tx.LoadU64(node.Add(avlLeftOff)))
		default:
			node = pmem.Addr(tx.LoadU64(node.Add(avlRightOff)))
		}
	}
	return nil, ErrNotFound
}

// Scan visits keys >= from in ascending byte order until fn returns
// false.
func (t *AVL) Scan(tx mtm.Reader, from []byte, fn func(key, val []byte) bool) {
	avlScan(tx, pmem.Addr(tx.LoadU64(t.rootPtr)), from, fn)
}

func avlScan(tx mtm.Reader, node pmem.Addr, from []byte, fn func(key, val []byte) bool) bool {
	if node == pmem.Nil {
		return true
	}
	k := avlKey(tx, node)
	if bytes.Compare(k, from) >= 0 {
		if !avlScan(tx, pmem.Addr(tx.LoadU64(node.Add(avlLeftOff))), from, fn) {
			return false
		}
		val, err := readValue(tx, pmem.Addr(tx.LoadU64(node.Add(avlVblkOff))))
		if err != nil {
			// A scan has no error channel; a corrupt length prefix here
			// is structural damage, same class as a torn node.
			panic(fmt.Sprintf("pds: avl scan at key %q: %v", k, err))
		}
		if !fn(k, val) {
			return false
		}
	}
	return avlScan(tx, pmem.Addr(tx.LoadU64(node.Add(avlRightOff))), from, fn)
}

// Delete removes key and frees its node and value block.
func (t *AVL) Delete(tx *mtm.Tx, key []byte) error {
	found, err := t.del(tx, t.rootPtr, key)
	if err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	return nil
}

func (t *AVL) del(tx *mtm.Tx, link pmem.Addr, key []byte) (bool, error) {
	node := pmem.Addr(tx.LoadU64(link))
	if node == pmem.Nil {
		return false, nil
	}
	var found bool
	var err error
	switch cmp := bytes.Compare(key, avlKey(tx, node)); {
	case cmp < 0:
		found, err = t.del(tx, node.Add(avlLeftOff), key)
	case cmp > 0:
		found, err = t.del(tx, node.Add(avlRightOff), key)
	default:
		left := pmem.Addr(tx.LoadU64(node.Add(avlLeftOff)))
		right := pmem.Addr(tx.LoadU64(node.Add(avlRightOff)))
		switch {
		case left == pmem.Nil:
			tx.StoreU64(link, uint64(right))
		case right == pmem.Nil:
			tx.StoreU64(link, uint64(left))
		default:
			// Two children: splice out the in-order successor and
			// put it in node's place.
			succ, err := avlUnlinkMin(tx, node.Add(avlRightOff))
			if err != nil {
				return false, err
			}
			tx.StoreU64(succ.Add(avlLeftOff), tx.LoadU64(node.Add(avlLeftOff)))
			tx.StoreU64(succ.Add(avlRightOff), tx.LoadU64(node.Add(avlRightOff)))
			tx.StoreU64(link, uint64(succ))
			avlRebalance(tx, link)
		}
		vblk := pmem.Addr(tx.LoadU64(node.Add(avlVblkOff)))
		if vblk != pmem.Nil {
			if err := tx.FreeBlock(vblk); err != nil {
				return false, err
			}
		}
		if err := tx.FreeBlock(node); err != nil {
			return false, err
		}
		found = true
	}
	if err != nil {
		return false, err
	}
	if found {
		avlRebalance(tx, link)
	}
	return found, nil
}

// avlUnlinkMin removes and returns the minimum node of the subtree at
// *link, rebalancing on the way out.
func avlUnlinkMin(tx *mtm.Tx, link pmem.Addr) (pmem.Addr, error) {
	node := pmem.Addr(tx.LoadU64(link))
	left := pmem.Addr(tx.LoadU64(node.Add(avlLeftOff)))
	if left == pmem.Nil {
		tx.StoreU64(link, tx.LoadU64(node.Add(avlRightOff)))
		return node, nil
	}
	min, err := avlUnlinkMin(tx, node.Add(avlLeftOff))
	if err != nil {
		return pmem.Nil, err
	}
	avlRebalance(tx, link)
	return min, nil
}

// Contains reports whether key is present without copying its value.
func (t *AVL) Contains(tx mtm.Reader, key []byte) bool {
	node := pmem.Addr(tx.LoadU64(t.rootPtr))
	for node != pmem.Nil {
		switch cmp := bytes.Compare(key, avlKey(tx, node)); {
		case cmp == 0:
			return true
		case cmp < 0:
			node = pmem.Addr(tx.LoadU64(node.Add(avlLeftOff)))
		default:
			node = pmem.Addr(tx.LoadU64(node.Add(avlRightOff)))
		}
	}
	return false
}

// Len counts the entries (O(n), for tests).
func (t *AVL) Len(tx mtm.Reader) int {
	return avlCount(tx, pmem.Addr(tx.LoadU64(t.rootPtr)))
}

func avlCount(tx mtm.Reader, node pmem.Addr) int {
	if node == pmem.Nil {
		return 0
	}
	return 1 + avlCount(tx, pmem.Addr(tx.LoadU64(node.Add(avlLeftOff)))) +
		avlCount(tx, pmem.Addr(tx.LoadU64(node.Add(avlRightOff))))
}

// Height returns the tree height (for invariant tests).
func (t *AVL) Height(tx mtm.Reader) int64 {
	return avlHeight(tx, pmem.Addr(tx.LoadU64(t.rootPtr)))
}

// CheckInvariants walks the tree verifying AVL balance, height fields and
// key ordering; it returns false on any violation (used by property
// tests).
func (t *AVL) CheckInvariants(tx mtm.Reader) bool {
	ok := true
	var walk func(node pmem.Addr, lo, hi []byte) int64
	walk = func(node pmem.Addr, lo, hi []byte) int64 {
		if node == pmem.Nil {
			return 0
		}
		k := avlKey(tx, node)
		if lo != nil && bytes.Compare(k, lo) <= 0 {
			ok = false
		}
		if hi != nil && bytes.Compare(k, hi) >= 0 {
			ok = false
		}
		lh := walk(pmem.Addr(tx.LoadU64(node.Add(avlLeftOff))), lo, k)
		rh := walk(pmem.Addr(tx.LoadU64(node.Add(avlRightOff))), k, hi)
		if lh-rh > 1 || rh-lh > 1 {
			ok = false
		}
		h := lh
		if rh > h {
			h = rh
		}
		if int64(tx.LoadU64(node.Add(avlHeightOff))) != h+1 {
			ok = false
		}
		return h + 1
	}
	walk(pmem.Addr(tx.LoadU64(t.rootPtr)), nil, nil)
	return ok
}
