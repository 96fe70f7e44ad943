package pds

import (
	"errors"
	"fmt"

	"repro/internal/mtm"
	"repro/internal/pmem"
)

// RBTree is a persistent red-black tree with 64-bit keys and a fixed
// 80-byte in-node payload, sized so every node is exactly 128 bytes — the
// structure of Table 5's comparison against Boost serialization: "We
// compare the cost of maintaining a red-black tree with 128 byte nodes in
// persistent memory against the cost of keeping it in DRAM and
// periodically serializing it."
//
// Node layout (128 bytes): left(8) right(8) parent(8) color(8) key(8)
// payload(88).
type RBTree struct {
	rootPtr pmem.Addr
}

// RBPayload is the fixed payload capacity of each node.
const RBPayload = 88

// RBNodeSize is the full node size, as in the paper.
const RBNodeSize = 128

const (
	rbLeftOff    = 0
	rbRightOff   = 8
	rbParentOff  = 16
	rbColorOff   = 24
	rbKeyOff     = 32
	rbPayloadOff = 40

	rbRed   = 0
	rbBlack = 1
)

// NewRBTree wraps the red-black tree rooted at the persistent pointer
// rootPtr (pmem.Nil there means an empty tree).
func NewRBTree(rootPtr pmem.Addr) *RBTree { return &RBTree{rootPtr: rootPtr} }

func (t *RBTree) root(tx mtm.Reader) pmem.Addr { return pmem.Addr(tx.LoadU64(t.rootPtr)) }

func rbLeft(tx mtm.Reader, n pmem.Addr) pmem.Addr  { return pmem.Addr(tx.LoadU64(n.Add(rbLeftOff))) }
func rbRight(tx mtm.Reader, n pmem.Addr) pmem.Addr { return pmem.Addr(tx.LoadU64(n.Add(rbRightOff))) }
func rbParent(tx mtm.Reader, n pmem.Addr) pmem.Addr {
	return pmem.Addr(tx.LoadU64(n.Add(rbParentOff)))
}
func rbKey(tx mtm.Reader, n pmem.Addr) uint64 { return tx.LoadU64(n.Add(rbKeyOff)) }

// rbColor treats nil as black, per the red-black convention.
func rbColor(tx mtm.Reader, n pmem.Addr) uint64 {
	if n == pmem.Nil {
		return rbBlack
	}
	return tx.LoadU64(n.Add(rbColorOff))
}

func rbSetColor(tx *mtm.Tx, n pmem.Addr, c uint64) { tx.StoreU64(n.Add(rbColorOff), c) }

// setChild links child under parent on side (0=left, 1=right), updating
// the child's parent pointer when non-nil.
func (t *RBTree) setChild(tx *mtm.Tx, parent pmem.Addr, side int, child pmem.Addr) {
	if parent == pmem.Nil {
		tx.StoreU64(t.rootPtr, uint64(child))
	} else if side == 0 {
		tx.StoreU64(parent.Add(rbLeftOff), uint64(child))
	} else {
		tx.StoreU64(parent.Add(rbRightOff), uint64(child))
	}
	if child != pmem.Nil {
		tx.StoreU64(child.Add(rbParentOff), uint64(parent))
	}
}

func (t *RBTree) sideOf(tx mtm.Reader, parent, child pmem.Addr) int {
	if rbLeft(tx, parent) == child {
		return 0
	}
	return 1
}

// rotateLeft rotates x's right child above it.
func (t *RBTree) rotateLeft(tx *mtm.Tx, x pmem.Addr) {
	y := rbRight(tx, x)
	p := rbParent(tx, x)
	side := 0
	if p != pmem.Nil {
		side = t.sideOf(tx, p, x)
	}
	t.setChild(tx, x, 1, rbLeft(tx, y))
	t.setChild(tx, y, 0, x)
	t.setChild(tx, p, side, y)
}

func (t *RBTree) rotateRight(tx *mtm.Tx, x pmem.Addr) {
	y := rbLeft(tx, x)
	p := rbParent(tx, x)
	side := 0
	if p != pmem.Nil {
		side = t.sideOf(tx, p, x)
	}
	t.setChild(tx, x, 0, rbRight(tx, y))
	t.setChild(tx, y, 1, x)
	t.setChild(tx, p, side, y)
}

// Insert adds or updates key with the given payload (at most RBPayload
// bytes).
func (t *RBTree) Insert(tx *mtm.Tx, key uint64, payload []byte) error {
	if len(payload) > RBPayload {
		return fmt.Errorf("pds: payload %d exceeds %d bytes", len(payload), RBPayload)
	}
	// Zero-pad to the full payload size so node contents never carry
	// stale bytes from block reuse.
	var padded [RBPayload]byte
	copy(padded[:], payload)

	// Standard BST descent.
	var parent pmem.Addr
	side := 0
	n := t.root(tx)
	for n != pmem.Nil {
		k := rbKey(tx, n)
		if key == k {
			tx.Store(n.Add(rbPayloadOff), padded[:])
			return nil
		}
		parent = n
		if key < k {
			side = 0
			n = rbLeft(tx, n)
		} else {
			side = 1
			n = rbRight(tx, n)
		}
	}
	node, err := tx.Alloc(RBNodeSize)
	if err != nil {
		return err
	}
	tx.StoreU64(node.Add(rbLeftOff), 0)
	tx.StoreU64(node.Add(rbRightOff), 0)
	tx.StoreU64(node.Add(rbKeyOff), key)
	rbSetColor(tx, node, rbRed)
	tx.Store(node.Add(rbPayloadOff), padded[:])
	t.setChild(tx, parent, side, node)
	t.insertFixup(tx, node)
	return nil
}

func (t *RBTree) insertFixup(tx *mtm.Tx, z pmem.Addr) {
	for {
		p := rbParent(tx, z)
		if p == pmem.Nil || rbColor(tx, p) == rbBlack {
			break
		}
		g := rbParent(tx, p)
		if rbLeft(tx, g) == p {
			u := rbRight(tx, g)
			if rbColor(tx, u) == rbRed {
				rbSetColor(tx, p, rbBlack)
				rbSetColor(tx, u, rbBlack)
				rbSetColor(tx, g, rbRed)
				z = g
				continue
			}
			if rbRight(tx, p) == z {
				z = p
				t.rotateLeft(tx, z)
				p = rbParent(tx, z)
			}
			rbSetColor(tx, p, rbBlack)
			rbSetColor(tx, g, rbRed)
			t.rotateRight(tx, g)
		} else {
			u := rbLeft(tx, g)
			if rbColor(tx, u) == rbRed {
				rbSetColor(tx, p, rbBlack)
				rbSetColor(tx, u, rbBlack)
				rbSetColor(tx, g, rbRed)
				z = g
				continue
			}
			if rbLeft(tx, p) == z {
				z = p
				t.rotateRight(tx, z)
				p = rbParent(tx, z)
			}
			rbSetColor(tx, p, rbBlack)
			rbSetColor(tx, g, rbRed)
			t.rotateLeft(tx, g)
		}
	}
	root := t.root(tx)
	rbSetColor(tx, root, rbBlack)
}

// Get copies the payload for key into a fresh slice.
func (t *RBTree) Get(tx mtm.Reader, key uint64) ([]byte, error) {
	n := t.root(tx)
	for n != pmem.Nil {
		k := rbKey(tx, n)
		switch {
		case key == k:
			out := make([]byte, RBPayload)
			tx.Load(out, n.Add(rbPayloadOff))
			return out, nil
		case key < k:
			n = rbLeft(tx, n)
		default:
			n = rbRight(tx, n)
		}
	}
	return nil, ErrNotFound
}

// Delete removes key, freeing its node.
func (t *RBTree) Delete(tx *mtm.Tx, key uint64) error {
	z := t.root(tx)
	for z != pmem.Nil && rbKey(tx, z) != key {
		if key < rbKey(tx, z) {
			z = rbLeft(tx, z)
		} else {
			z = rbRight(tx, z)
		}
	}
	if z == pmem.Nil {
		return ErrNotFound
	}

	// CLRS deletion: y is the node physically removed, x the child that
	// replaces it (possibly nil, tracked with its parent).
	y := z
	yColor := rbColor(tx, y)
	var x, xParent pmem.Addr
	switch {
	case rbLeft(tx, z) == pmem.Nil:
		x = rbRight(tx, z)
		xParent = rbParent(tx, z)
		t.transplant(tx, z, x)
	case rbRight(tx, z) == pmem.Nil:
		x = rbLeft(tx, z)
		xParent = rbParent(tx, z)
		t.transplant(tx, z, x)
	default:
		y = t.minimum(tx, rbRight(tx, z))
		yColor = rbColor(tx, y)
		x = rbRight(tx, y)
		if rbParent(tx, y) == z {
			xParent = y
		} else {
			xParent = rbParent(tx, y)
			t.transplant(tx, y, x)
			t.setChild(tx, y, 1, rbRight(tx, z))
		}
		t.transplant(tx, z, y)
		t.setChild(tx, y, 0, rbLeft(tx, z))
		rbSetColor(tx, y, rbColor(tx, z))
	}
	if err := tx.FreeBlock(z); err != nil {
		return err
	}
	if yColor == rbBlack {
		t.deleteFixup(tx, x, xParent)
	}
	return nil
}

// transplant replaces subtree u by subtree v in u's parent.
func (t *RBTree) transplant(tx *mtm.Tx, u, v pmem.Addr) {
	p := rbParent(tx, u)
	if p == pmem.Nil {
		t.setChild(tx, pmem.Nil, 0, v)
	} else {
		t.setChild(tx, p, t.sideOf(tx, p, u), v)
	}
}

func (t *RBTree) minimum(tx mtm.Reader, n pmem.Addr) pmem.Addr {
	for rbLeft(tx, n) != pmem.Nil {
		n = rbLeft(tx, n)
	}
	return n
}

// deleteFixup restores red-black properties after removing a black node;
// x may be nil, so its parent is tracked explicitly.
func (t *RBTree) deleteFixup(tx *mtm.Tx, x, xParent pmem.Addr) {
	for x != t.root(tx) && rbColor(tx, x) == rbBlack {
		if xParent == pmem.Nil {
			break
		}
		if rbLeft(tx, xParent) == x {
			w := rbRight(tx, xParent)
			if rbColor(tx, w) == rbRed {
				rbSetColor(tx, w, rbBlack)
				rbSetColor(tx, xParent, rbRed)
				t.rotateLeft(tx, xParent)
				w = rbRight(tx, xParent)
			}
			if rbColor(tx, rbLeft(tx, w)) == rbBlack && rbColor(tx, rbRight(tx, w)) == rbBlack {
				rbSetColor(tx, w, rbRed)
				x = xParent
				xParent = rbParent(tx, x)
			} else {
				if rbColor(tx, rbRight(tx, w)) == rbBlack {
					if l := rbLeft(tx, w); l != pmem.Nil {
						rbSetColor(tx, l, rbBlack)
					}
					rbSetColor(tx, w, rbRed)
					t.rotateRight(tx, w)
					w = rbRight(tx, xParent)
				}
				rbSetColor(tx, w, rbColor(tx, xParent))
				rbSetColor(tx, xParent, rbBlack)
				if r := rbRight(tx, w); r != pmem.Nil {
					rbSetColor(tx, r, rbBlack)
				}
				t.rotateLeft(tx, xParent)
				x = t.root(tx)
				xParent = pmem.Nil
			}
		} else {
			w := rbLeft(tx, xParent)
			if rbColor(tx, w) == rbRed {
				rbSetColor(tx, w, rbBlack)
				rbSetColor(tx, xParent, rbRed)
				t.rotateRight(tx, xParent)
				w = rbLeft(tx, xParent)
			}
			if rbColor(tx, rbRight(tx, w)) == rbBlack && rbColor(tx, rbLeft(tx, w)) == rbBlack {
				rbSetColor(tx, w, rbRed)
				x = xParent
				xParent = rbParent(tx, x)
			} else {
				if rbColor(tx, rbLeft(tx, w)) == rbBlack {
					if r := rbRight(tx, w); r != pmem.Nil {
						rbSetColor(tx, r, rbBlack)
					}
					rbSetColor(tx, w, rbRed)
					t.rotateLeft(tx, w)
					w = rbLeft(tx, xParent)
				}
				rbSetColor(tx, w, rbColor(tx, xParent))
				rbSetColor(tx, xParent, rbBlack)
				if l := rbLeft(tx, w); l != pmem.Nil {
					rbSetColor(tx, l, rbBlack)
				}
				t.rotateRight(tx, xParent)
				x = t.root(tx)
				xParent = pmem.Nil
			}
		}
	}
	if x != pmem.Nil {
		rbSetColor(tx, x, rbBlack)
	}
}

// InOrder visits every (key, payload) in ascending key order until fn
// returns false. The serializer baseline uses this traversal.
func (t *RBTree) InOrder(tx mtm.Reader, fn func(key uint64, payload []byte) bool) {
	payload := make([]byte, RBPayload)
	var walk func(n pmem.Addr) bool
	walk = func(n pmem.Addr) bool {
		if n == pmem.Nil {
			return true
		}
		if !walk(rbLeft(tx, n)) {
			return false
		}
		tx.Load(payload, n.Add(rbPayloadOff))
		if !fn(rbKey(tx, n), payload) {
			return false
		}
		return walk(rbRight(tx, n))
	}
	walk(t.root(tx))
}

// Contains reports whether key is present without copying its payload.
func (t *RBTree) Contains(tx mtm.Reader, key uint64) bool {
	n := t.root(tx)
	for n != pmem.Nil {
		k := rbKey(tx, n)
		switch {
		case key == k:
			return true
		case key < k:
			n = rbLeft(tx, n)
		default:
			n = rbRight(tx, n)
		}
	}
	return false
}

// Len counts the entries (O(n), for tests).
func (t *RBTree) Len(tx mtm.Reader) int {
	n := 0
	t.InOrder(tx, func(uint64, []byte) bool { n++; return true })
	return n
}

// CheckInvariants verifies the red-black properties: binary order, no red
// node with a red child, and equal black heights on every path.
func (t *RBTree) CheckInvariants(tx mtm.Reader) error {
	root := t.root(tx)
	if root == pmem.Nil {
		return nil
	}
	if rbColor(tx, root) != rbBlack {
		return errors.New("pds: red root")
	}
	var walk func(n pmem.Addr, lo, hi uint64, hasLo, hasHi bool) (int, error)
	walk = func(n pmem.Addr, lo, hi uint64, hasLo, hasHi bool) (int, error) {
		if n == pmem.Nil {
			return 1, nil
		}
		k := rbKey(tx, n)
		if hasLo && k <= lo {
			return 0, fmt.Errorf("pds: key %d violates lower bound", k)
		}
		if hasHi && k >= hi {
			return 0, fmt.Errorf("pds: key %d violates upper bound", k)
		}
		l, r := rbLeft(tx, n), rbRight(tx, n)
		if rbColor(tx, n) == rbRed &&
			(rbColor(tx, l) == rbRed || rbColor(tx, r) == rbRed) {
			return 0, fmt.Errorf("pds: red node %d has red child", k)
		}
		for _, c := range []pmem.Addr{l, r} {
			if c != pmem.Nil && rbParent(tx, c) != n {
				return 0, fmt.Errorf("pds: bad parent pointer under %d", k)
			}
		}
		lb, err := walk(l, lo, k, hasLo, true)
		if err != nil {
			return 0, err
		}
		rb, err := walk(r, k, hi, true, hasHi)
		if err != nil {
			return 0, err
		}
		if lb != rb {
			return 0, fmt.Errorf("pds: black height mismatch at %d (%d vs %d)", k, lb, rb)
		}
		if rbColor(tx, n) == rbBlack {
			lb++
		}
		return lb, nil
	}
	_, err := walk(root, 0, 0, false, false)
	return err
}
