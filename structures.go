package mnemosyne

import (
	"repro/internal/pds"
)

// Persistent data structures built on durable transactions, re-exported
// from internal/pds: the paper's microbenchmark hash table, the OpenLDAP
// conversion's AVL tree, the Tokyo Cabinet conversion's B+ tree, and the
// serialization comparison's red-black tree.

// ErrNotFound reports a lookup or delete of an absent key in any of the
// persistent data structures.
var ErrNotFound = pds.ErrNotFound

// HashTable is a persistent chained hash table (uint64 keys, byte-slice
// values).
type HashTable = pds.HashTable

// AVL is a persistent AVL tree (byte-string keys, byte-slice values).
type AVL = pds.AVL

// BPTree is a persistent B+ tree (uint64 keys, byte-slice values).
type BPTree = pds.BPTree

// RBTree is a persistent red-black tree with 128-byte nodes.
type RBTree = pds.RBTree

// CreateHashTable allocates a hash table with nbuckets chains, rooted at
// the persistent pointer rootPtr.
func CreateHashTable(th *Thread, rootPtr Addr, nbuckets int) (*HashTable, error) {
	return pds.CreateHashTable(th, rootPtr, nbuckets)
}

// OpenHashTable attaches to the hash table rooted at rootPtr. Any Reader
// works: a writing Tx or a snapshot ReadTx.
func OpenHashTable(tx Reader, rootPtr Addr) (*HashTable, error) {
	return pds.OpenHashTable(tx, rootPtr)
}

// NewAVL wraps the AVL tree rooted at the persistent pointer rootPtr
// (Nil means empty).
func NewAVL(rootPtr Addr) *AVL { return pds.NewAVL(rootPtr) }

// NewBPTree wraps the B+ tree rooted at rootPtr (Nil means empty).
func NewBPTree(rootPtr Addr) *BPTree { return pds.NewBPTree(rootPtr) }

// NewRBTree wraps the red-black tree rooted at rootPtr (Nil means empty).
func NewRBTree(rootPtr Addr) *RBTree { return pds.NewRBTree(rootPtr) }
