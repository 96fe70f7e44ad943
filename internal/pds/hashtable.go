package pds

import (
	"errors"
	"fmt"

	"repro/internal/mtm"
	"repro/internal/pmem"
)

// HashTable is a persistent chained hash table with 64-bit keys and
// variable-length values, the structure used by the paper's
// microbenchmark comparison against Berkeley DB (Figures 4, 5, 7). It is a
// port of the simple C hash table the paper cites, with pmalloc'd entry
// nodes and durable transactions around updates.
//
// Layout (one pmalloc'd block):
//
//	0:  magic
//	8:  bucket count
//	16: count cell[0] ... cell[63]   sharded element count
//	528: bucket[0] ... bucket[n-1]   chain heads
//
// The element count is sharded over 64 cells (indexed by bucket) so
// concurrent inserts to different buckets do not conflict on one hot
// counter word; Len sums the cells.
//
// Entry node: next(8) key(8) vlen(8) value bytes (inline).
type HashTable struct {
	base pmem.Addr
}

const (
	htMagic = 0x4d4e485348545431 // "MNHSHTT1"

	htBucketsOff = 8
	htCountOff   = 16
	htCountCells = 64
	htTableOff   = htCountOff + 8*htCountCells

	entNextOff = 0
	entKeyOff  = 8
	entLenOff  = 16
	entValOff  = 24
)

// ErrNotFound reports a lookup or delete of an absent key.
var ErrNotFound = errors.New("pds: key not found")

// CreateHashTable allocates and initializes a hash table with nbuckets
// chains, storing its address through the persistent pointer at rootPtr.
// Initialization runs as a sequence of transactions (bucket zeroing is
// chunked so arbitrarily large tables fit the redo log); the magic word
// committed last is the creation's atomic commit point, so a crash
// mid-create leaves a root that OpenHashTable rejects and the caller
// recreates.
func CreateHashTable(th *mtm.Thread, rootPtr pmem.Addr, nbuckets int) (*HashTable, error) {
	if nbuckets <= 0 {
		return nil, fmt.Errorf("pds: bad bucket count %d", nbuckets)
	}
	var base pmem.Addr
	err := th.Atomic(func(tx *mtm.Tx) error {
		b, err := tx.PMalloc(htTableOff+int64(nbuckets)*8, rootPtr)
		if err != nil {
			return err
		}
		base = b
		tx.StoreU64(b, 0) // magic unset until initialization completes
		tx.StoreU64(b.Add(htBucketsOff), uint64(nbuckets))
		tx.StoreU64(b.Add(htCountOff), 0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	const chunk = 1024
	for lo := 0; lo < nbuckets; lo += chunk {
		hi := lo + chunk
		if hi > nbuckets {
			hi = nbuckets
		}
		if err := th.Atomic(func(tx *mtm.Tx) error {
			for i := lo; i < hi; i++ {
				tx.StoreU64(base.Add(htTableOff+int64(i)*8), 0)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if err := th.Atomic(func(tx *mtm.Tx) error {
		tx.StoreU64(base, htMagic)
		return nil
	}); err != nil {
		return nil, err
	}
	return &HashTable{base: base}, nil
}

// OpenHashTable attaches to the hash table whose address is stored at
// rootPtr. Opening only reads, so it works inside a snapshot View as well
// as a writing transaction.
func OpenHashTable(tx mtm.Reader, rootPtr pmem.Addr) (*HashTable, error) {
	base := pmem.Addr(tx.LoadU64(rootPtr))
	if base == pmem.Nil {
		return nil, errors.New("pds: nil hash table root")
	}
	if tx.LoadU64(base) != htMagic {
		return nil, fmt.Errorf("pds: no hash table at %v", base)
	}
	return &HashTable{base: base}, nil
}

// Base returns the table's block address.
func (h *HashTable) Base() pmem.Addr { return h.base }

func (h *HashTable) bucket(tx mtm.Reader, key uint64) pmem.Addr {
	n := tx.LoadU64(h.base.Add(htBucketsOff))
	return h.base.Add(htTableOff + int64(hash64(key)%n)*8)
}

// countCell returns the count shard for a key's bucket.
func (h *HashTable) countCell(tx mtm.Reader, key uint64) pmem.Addr {
	n := tx.LoadU64(h.base.Add(htBucketsOff))
	return h.base.Add(htCountOff + int64(hash64(key)%n%htCountCells)*8)
}

// Put inserts or replaces the value for key. Replacement frees the old
// entry node and links a fresh one, as the paper's conversion does.
func (h *HashTable) Put(tx *mtm.Tx, key uint64, val []byte) error {
	bucket := h.bucket(tx, key)

	// Unlink an existing entry for the key, if any.
	replaced, err := h.unlink(tx, bucket, key)
	if err != nil {
		return err
	}

	head := tx.LoadU64(bucket)
	node, err := tx.Alloc(entValOff + int64(len(val)))
	if err != nil {
		return err
	}
	tx.StoreU64(node.Add(entNextOff), head)
	tx.StoreU64(node.Add(entKeyOff), key)
	tx.StoreU64(node.Add(entLenOff), uint64(len(val)))
	if len(val) > 0 {
		tx.Store(node.Add(entValOff), val)
	}
	tx.StoreU64(bucket, uint64(node))
	if !replaced {
		cnt := h.countCell(tx, key)
		tx.StoreU64(cnt, tx.LoadU64(cnt)+1)
	}
	return nil
}

// Get returns a copy of the value for key.
func (h *HashTable) Get(tx mtm.Reader, key uint64) ([]byte, error) {
	node := pmem.Addr(tx.LoadU64(h.bucket(tx, key)))
	for node != pmem.Nil {
		if tx.LoadU64(node.Add(entKeyOff)) == key {
			n := int64(tx.LoadU64(node.Add(entLenOff)))
			out := make([]byte, n)
			if n > 0 {
				tx.Load(out, node.Add(entValOff))
			}
			return out, nil
		}
		node = pmem.Addr(tx.LoadU64(node.Add(entNextOff)))
	}
	return nil, ErrNotFound
}

// Delete removes key, freeing its entry node.
func (h *HashTable) Delete(tx *mtm.Tx, key uint64) error {
	removed, err := h.unlink(tx, h.bucket(tx, key), key)
	if err != nil {
		return err
	}
	if !removed {
		return ErrNotFound
	}
	cnt := h.countCell(tx, key)
	tx.StoreU64(cnt, tx.LoadU64(cnt)-1)
	return nil
}

// unlink removes the entry for key from the chain rooted at link,
// scheduling its node for freeing; reports whether an entry was found.
func (h *HashTable) unlink(tx *mtm.Tx, link pmem.Addr, key uint64) (bool, error) {
	for {
		node := pmem.Addr(tx.LoadU64(link))
		if node == pmem.Nil {
			return false, nil
		}
		if tx.LoadU64(node.Add(entKeyOff)) == key {
			next := tx.LoadU64(node.Add(entNextOff))
			tx.StoreU64(link, next)
			return true, tx.FreeBlock(node)
		}
		link = node.Add(entNextOff)
	}
}

// Contains reports whether key is present without copying its value.
func (h *HashTable) Contains(tx mtm.Reader, key uint64) bool {
	node := pmem.Addr(tx.LoadU64(h.bucket(tx, key)))
	for node != pmem.Nil {
		if tx.LoadU64(node.Add(entKeyOff)) == key {
			return true
		}
		node = pmem.Addr(tx.LoadU64(node.Add(entNextOff)))
	}
	return false
}

// Scan visits every entry in bucket order (chain order within a bucket),
// copying each value, until fn returns false. The visit order is
// deterministic for a given table state but otherwise unspecified. Like
// the other read paths it runs against any Reader — a snapshot View or a
// writing transaction.
func (h *HashTable) Scan(tx mtm.Reader, fn func(key uint64, val []byte) bool) {
	nbuckets := int64(tx.LoadU64(h.base.Add(htBucketsOff)))
	for b := int64(0); b < nbuckets; b++ {
		node := pmem.Addr(tx.LoadU64(h.base.Add(htTableOff + b*8)))
		for node != pmem.Nil {
			key := tx.LoadU64(node.Add(entKeyOff))
			n := int64(tx.LoadU64(node.Add(entLenOff)))
			val := make([]byte, n)
			if n > 0 {
				tx.Load(val, node.Add(entValOff))
			}
			if !fn(key, val) {
				return
			}
			node = pmem.Addr(tx.LoadU64(node.Add(entNextOff)))
		}
	}
}

// Len returns the number of entries by summing the count shards.
func (h *HashTable) Len(tx mtm.Reader) int64 {
	var n int64
	for c := 0; c < htCountCells; c++ {
		n += int64(tx.LoadU64(h.base.Add(htCountOff + int64(c)*8)))
	}
	return n
}
