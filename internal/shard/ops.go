package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/mtm"
	"repro/internal/pds"
)

// Record and protocol size limits, shared with kvserve's wire protocol
// (the record format is identical, so a single-shard store reads a
// pre-sharding kvserve image and vice versa).
const (
	// MaxKeyLen bounds keys (bytes); the length must fit the record
	// header's two bytes.
	MaxKeyLen = 4 << 10
	// MaxValueLen bounds values (bytes).
	MaxValueLen = 56 << 10
)

// Size-limit sentinels, matchable with errors.Is.
var (
	ErrKeyTooLong   = errors.New("shard: key too long")
	ErrValueTooLong = errors.New("shard: value too long")
)

// ErrHashCollision reports a write whose key hashes onto a slot already
// holding a DIFFERENT key's record. The tree is keyed by hash(key), so
// an unchecked put would silently destroy the colliding key's data; the
// store refuses instead. Matchable with errors.Is.
var ErrHashCollision = errors.New("shard: hash collision with a different stored key")

// ErrNotFound reports a lookup or delete of an absent key (an alias for
// the persistent data structures' sentinel, so both match errors.Is).
var ErrNotFound = pds.ErrNotFound

// HashKey maps a string key into the tree's key space (FNV-1a) — the
// same function kvserve partitions pipelined batches with, so a batch
// partition and the shard it routes to agree. The full key is stored
// with the value to detect collisions.
func HashKey(s string) uint64 { return hashKey(s) }

// HashKeyBytes is HashKey of a key still held as bytes (a view into a
// connection's input buffer).
func HashKeyBytes(b []byte) uint64 { return hashKey(b) }

// keySlot is key's tree key: HashKey, unless a collision test replaced
// st.hash.
func keySlot[K ~string | ~[]byte](st *Store, key K) uint64 {
	if st.hash == nil {
		return hashKey(key)
	}
	return st.hash(string(key))
}

// keyShard is the shard key routes to.
func keyShard[K ~string | ~[]byte](st *Store, key K) int {
	return int(keySlot(st, key) % uint64(len(st.shards)))
}

// touched is the set of shards keys route to, as a bit mask (a store has
// at most MaxShards = 64): multi-key operations visit those shards in
// ascending order — the deterministic order every multi-shard operation
// uses — and pick their keys out again on each.
func touched[K ~string | ~[]byte](st *Store, keys []K) (mask uint64) {
	for _, key := range keys {
		mask |= 1 << uint(keyShard(st, key))
	}
	return mask
}

func hashKey[K ~string | ~[]byte](s K) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// EncodeKV builds a plain string record without expiry — the classic
// SET record, kept as the string-typed convenience over EncodeRecord.
func EncodeKV(key, value string) ([]byte, error) {
	return EncodeRecord(Record{Key: key, Type: RecString, Value: []byte(value)})
}

// DecodeKV splits a string record back into key and value. Typed
// records that are not strings fail with ErrWrongType.
func DecodeKV(b []byte) (key, value string, err error) {
	rec, err := DecodeRecord(b)
	if err != nil {
		return "", "", err
	}
	if rec.Type != RecString {
		return "", "", ErrWrongType
	}
	return rec.Key, string(rec.Value), nil
}

// find locates key's record on its shard through any Reader and decodes
// its header, resolving hash collisions against the stored full key: a
// slot that is empty or holds another key's record answers ErrNotFound.
// Only the header is loaded; the payload stays in the tree.
func (st *Store) find(sh *Shard, r mtm.Reader, key string) (Header, pds.Stored, error) {
	v, err := sh.Tree.Find(r, keySlot(st, key))
	if err != nil {
		return Header{}, v, err
	}
	h, _, err := LoadHeader(v, nil)
	if err == nil && string(h.Key) != key {
		err = ErrNotFound // hash collision with another key
	}
	return h, v, err
}

// lookup reads one key's string value. Records past their expiry
// deadline and records of non-string type answer ErrNotFound and
// ErrWrongType respectively, so the string API never leaks a hash
// payload or a logically-dead value.
func (st *Store) lookup(sh *Shard, r mtm.Reader, key string) (string, error) {
	h, v, err := st.find(sh, r, key)
	if err != nil {
		return "", err
	}
	if h.Expired(st.now()) {
		return "", ErrNotFound
	}
	if h.Type != RecString {
		return "", ErrWrongType
	}
	value := make([]byte, v.Len()-h.Size)
	v.Load(value, h.Size)
	return string(value), nil
}

// checkCollision fails with ErrHashCollision when key's slot already
// holds a different key's record; an absent or same-key slot is fine. The
// stored header is loaded into buf, which is returned for reuse.
func (st *Store) checkCollision(sh *Shard, r mtm.Reader, key, buf []byte) ([]byte, error) {
	v, err := sh.Tree.Find(r, keySlot(st, key))
	if err == ErrNotFound {
		return buf, nil
	}
	if err != nil {
		return buf, err
	}
	h, buf, err := LoadHeader(v, buf)
	if err == nil && !bytes.Equal(h.Key, key) {
		err = fmt.Errorf("%w: %q and stored %q share hash %#x", ErrHashCollision, key, h.Key, keySlot(st, key))
	}
	return buf, err
}

// checkedPut stores rec at its key's slot in one descent that
// compares the stored key in place: overwriting the same key is the
// normal update, overwriting a colliding key would destroy its record,
// so that fails with ErrHashCollision and the transaction aborts
// untouched.
func (st *Store) checkedPut(sh *Shard, tx *mtm.Tx, rec []byte) error {
	key := RecordKey(rec)
	err := sh.Tree.Upsert(tx, keySlot(st, key), rec, nil, KeyPrefixLen(rec))
	if err == pds.ErrMismatch {
		return fmt.Errorf("%w: %q at hash %#x", ErrHashCollision, key, keySlot(st, key))
	}
	return err
}

// Set durably stores key=value on its shard.
func (st *Store) Set(key, value string) error {
	rec, err := EncodeKV(key, value)
	if err != nil {
		return err
	}
	sh := st.shards[keyShard(st, key)]
	return sh.PM.Atomic(func(tx *mtm.Tx) error {
		return st.checkedPut(sh, tx, rec)
	})
}

// Get reads key from a snapshot of its shard; ErrNotFound when absent.
func (st *Store) Get(key string) (string, error) {
	sh := st.shards[keyShard(st, key)]
	var value string
	err := sh.PM.View(func(r *mtm.ReadTx) error {
		v, err := st.lookup(sh, r, key)
		if err != nil {
			return err
		}
		value = v
		return nil
	})
	return value, err
}

// Del durably deletes key from its shard; ErrNotFound when absent.
func (st *Store) Del(key string) error {
	sh := st.shards[keyShard(st, key)]
	return sh.PM.Atomic(func(tx *mtm.Tx) error {
		// Compare the stored key before deleting: the tree is keyed by
		// hash, and deleting on a collision would destroy a different
		// key's record.
		if _, _, err := st.find(sh, tx, key); err != nil {
			return err
		}
		return sh.Tree.Delete(tx, keySlot(st, key))
	})
}

// MGet reads every key, visiting the touched shards in ascending order
// with one snapshot View per shard: values[i] and present[i] answer
// keys[i], and all answers from the same shard reflect one committed
// snapshot. (Across shards the snapshots are independent — the store
// has no global clock to cut a cross-shard snapshot with.)
func (st *Store) MGet(keys []string) (values []string, present []bool, err error) {
	values = make([]string, len(keys))
	present = make([]bool, len(keys))
	for mask := touched(st, keys); mask != 0; mask &= mask - 1 {
		k := bits.TrailingZeros64(mask)
		sh := st.shards[k]
		verr := sh.PM.View(func(r *mtm.ReadTx) error {
			for i, key := range keys {
				if keyShard(st, key) != k {
					continue
				}
				v, err := st.lookup(sh, r, key)
				if err == ErrNotFound {
					continue
				}
				if err != nil {
					return err
				}
				values[i], present[i] = v, true
			}
			return nil
		})
		if verr != nil {
			return nil, nil, verr
		}
	}
	return values, present, nil
}

// MSet durably stores every keys[i]=values[i] pair, atomically across
// all the shards it touches: after a crash at any instant, recovery
// leaves either every pair applied or none. Pairs on one shard commit in
// a single local transaction; pairs spanning shards run the cross-shard
// intent protocol (xstage.go).
func (st *Store) MSet(keys, values []string) error {
	if len(keys) != len(values) {
		return fmt.Errorf("shard: MSet with %d keys but %d values", len(keys), len(values))
	}
	recs := make([][]byte, len(keys))
	for i := range keys {
		rec, err := EncodeKV(keys[i], values[i])
		if err != nil {
			return err
		}
		recs[i] = rec
	}
	return st.MSetRecs(keys, recs)
}

// MSetRecs is MSet over pre-encoded records: keys[i] names the routing
// key of recs[i], which must be an EncodeRecord encoding of that same
// key (any type, any expiry).
func (st *Store) MSetRecs(keys []string, recs [][]byte) error {
	if len(keys) != len(recs) {
		return fmt.Errorf("shard: MSetRecs with %d keys but %d records", len(keys), len(recs))
	}
	for i, key := range keys {
		if key != string(RecordKey(recs[i])) {
			return fmt.Errorf("shard: MSetRecs key %q names a record of key %q", key, RecordKey(recs[i]))
		}
	}
	return st.MPut(recs)
}

// MPut durably stores every record under the key it carries, atomically
// across all the shards they route to, like MSet. The records are
// EncodeRecord encodings of any type and expiry: the RESP engine writes
// typed records — hashes, TTL-carrying strings — through the same
// cross-shard atomicity protocol as plain MSET.
func (st *Store) MPut(recs [][]byte) error {
	var mask uint64
	for _, rec := range recs {
		mask |= 1 << uint(keyShard(st, RecordKey(rec)))
	}
	switch {
	case mask == 0:
		return nil
	case mask&(mask-1) != 0:
		return st.msetCross(mask, recs)
	}
	// All pairs land on one shard: one ordinary durable transaction.
	sh := st.shards[bits.TrailingZeros64(mask)]
	return sh.PM.Atomic(func(tx *mtm.Tx) error {
		for _, rec := range recs {
			if err := st.checkedPut(sh, tx, rec); err != nil {
				return err
			}
		}
		return nil
	})
}

// MDel durably deletes every named key, one local transaction per
// touched shard in ascending order, reporting how many were present.
// Missing keys (and hash collisions holding a different key's record)
// are skipped, not errors. Cross-shard MDEL is not atomic as a unit;
// each shard's deletions are.
func (st *Store) MDel(keys []string) (int, error) {
	deleted := 0
	for mask := touched(st, keys); mask != 0; mask &= mask - 1 {
		k := bits.TrailingZeros64(mask)
		sh := st.shards[k]
		n := 0
		err := sh.PM.Atomic(func(tx *mtm.Tx) error {
			n = 0 // conflict retries rerun the closure
			for _, key := range keys {
				if keyShard(st, key) != k {
					continue
				}
				if _, _, err := st.find(sh, tx, key); err == ErrNotFound {
					continue // absent, or a colliding key's record
				} else if err != nil {
					return err
				}
				if err := sh.Tree.Delete(tx, keySlot(st, key)); err != nil {
					return err
				}
				n++
			}
			return nil
		})
		if err != nil {
			return deleted, err
		}
		deleted += n
	}
	return deleted, nil
}

// Count sums the per-shard key counts, one snapshot per shard.
func (st *Store) Count() (int, error) {
	total := 0
	for _, sh := range st.shards {
		n := 0
		err := sh.PM.View(func(r *mtm.ReadTx) error {
			n = sh.Tree.Len(r)
			return nil
		})
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
