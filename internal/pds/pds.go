// Package pds provides persistent data structures built on Mnemosyne's
// durable memory transactions: the chained hash table of the paper's
// microbenchmarks (§6.3), the AVL tree used by the OpenLDAP conversion
// (§6.2), the B+ tree used by the Tokyo Cabinet conversion (§6.2), and the
// red-black tree of the serialization comparison (Table 5).
//
// Every structure stores plain persistent addresses (pmem.Addr) in its
// nodes and performs all reads and writes through a transaction, so any
// mutation is atomic, durable and isolated. Structures are addressed by a
// persistent root pointer owned by the caller (typically a pstatic
// variable or a pmalloc'd block), exactly like the paper's converted
// applications.
package pds

import (
	"errors"

	"repro/internal/blob"
	"repro/internal/mtm"
	"repro/internal/pmem"
)

// Value blocks hold variable-length values out-of-line:
// [0] length, [8...] bytes.
const valueHdr = 8

// MaxValue caps a single stored value. The servers enforce tighter
// protocol-level caps (shard.MaxValueLen); this one exists so the decode
// path can tell a plausible length from a corrupt one.
const MaxValue = 1 << 24

// writeValue allocates a value block and fills it transactionally with
// head followed by tail — a caller that frames a payload with a header
// stores both without joining them first. Zero-length values are valid
// and allocate a bare header.
func writeValue(tx *mtm.Tx, head, tail []byte) (pmem.Addr, error) {
	n := int64(len(head) + len(tail))
	if err := blob.CheckWrite(n, MaxValue); err != nil {
		return pmem.Nil, err
	}
	blk, err := tx.Alloc(valueHdr + n)
	if err != nil {
		return pmem.Nil, err
	}
	tx.StoreU64(blk, uint64(n))
	if len(head) > 0 {
		tx.Store(blk.Add(valueHdr), head)
	}
	if len(tail) > 0 {
		tx.Store(blk.Add(valueHdr+int64(len(head))), tail)
	}
	return blk, nil
}

// readValue copies a value block's contents. It needs only Reader, so it
// runs inside both writing transactions and snapshot Views. The stored
// length is validated before it sizes an allocation: a corrupt prefix
// fails with blob.ErrCorrupt instead of attempting a wild make().
func readValue(tx mtm.Reader, blk pmem.Addr) ([]byte, error) {
	n := int64(tx.LoadU64(blk))
	if err := blob.CheckRead(n, MaxValue); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if n > 0 {
		tx.Load(out, blk.Add(valueHdr))
	}
	return out, nil
}

// Stored is a value located by an OrderedMap's Find: its length, and loads
// of any part of it, without a copy of the whole. It is valid only inside
// the transaction or view whose reader found it.
type Stored struct {
	r    mtm.Reader
	data pmem.Addr // the value's first byte; Nil when b holds the bytes
	n    int
	b    []byte // a backend that cannot read in place hands over its copy
}

// Len is the value's length in bytes.
func (v Stored) Len() int { return v.n }

// Load fills dst with the value's bytes from offset off on.
func (v Stored) Load(dst []byte, off int) {
	if off < 0 || off+len(dst) > v.n {
		panic("pds: Stored.Load beyond the value")
	}
	if v.data == pmem.Nil {
		copy(dst, v.b[off:])
		return
	}
	v.r.Load(dst, v.data.Add(int64(off)))
}

// findValue validates a value block's length prefix and wraps the block
// for in-place reads.
func findValue(r mtm.Reader, blk pmem.Addr) (Stored, error) {
	n := int64(r.LoadU64(blk))
	if err := blob.CheckRead(n, MaxValue); err != nil {
		return Stored{}, err
	}
	return Stored{r: r, data: blk.Add(valueHdr), n: int(n)}, nil
}

// ErrMismatch reports an Upsert refused because the stored value does not
// start with the guard prefix of its replacement.
var ErrMismatch = errors.New("pds: stored value does not start with the guard prefix")

// hasPrefix reports whether the value block at blk starts with p,
// comparing the stored words in place: no buffer, and a read set the
// size of p rather than of the value.
func hasPrefix(r mtm.Reader, blk pmem.Addr, p []byte) bool {
	if r.LoadU64(blk) < uint64(len(p)) {
		return false
	}
	for i := 0; i < len(p); i += 8 {
		w := r.LoadU64(blk.Add(valueHdr + int64(i)))
		for j := i; j < i+8 && j < len(p); j++ {
			if byte(w>>(8*uint(j-i))) != p[j] {
				return false
			}
		}
	}
	return true
}

// hash64 is the 64-bit finalizer of SplitMix64, used to spread integer
// keys over hash buckets.
func hash64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
