package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/blob"
	"repro/internal/pds"
)

// Tree records are typed since the RESP redesign: a record is no longer
// bare key+value bytes but carries a one-byte flag field declaring its
// value type (string or hash) and, optionally, an absolute expiry
// deadline. Layout:
//
//	[2B key length][key][1B flags][8B expiry deadline?][payload]
//
// flags bits 0-1 hold the RecType, bit 2 marks an expiry field present.
// The deadline is UNIX nanoseconds, little endian, and is the
// authoritative expiry: the timer wheel (internal/kvserve) only holds
// advisory reminders pointing back at records, so a stale or duplicated
// wheel entry can never expire a record whose own deadline says
// otherwise. String payloads are the raw value bytes; hash payloads are
// the field codec below.

// RecType is a record's value type.
type RecType byte

const (
	// RecString is a plain byte-string value.
	RecString RecType = 0
	// RecHash is a field→value map (HSET/HGET), encoded with
	// AppendHashFields.
	RecHash RecType = 1
)

const (
	recTypeMask   = 0x03
	recFlagExpire = 0x04
	recFlagsKnown = recTypeMask | recFlagExpire
)

// Record is one decoded tree record.
type Record struct {
	Key    string
	Type   RecType
	Expire int64  // UNIX nanoseconds; 0 = no expiry
	Value  []byte // string bytes, or AppendHashFields payload
}

// Expired reports whether the record's deadline has passed at now.
func (r *Record) Expired(now int64) bool {
	return r.Expire != 0 && r.Expire <= now
}

// ErrWrongType reports an operation against a key holding the other
// value type (a GET of a hash, an HGET of a string). Matchable with
// errors.Is.
var ErrWrongType = errors.New("WRONGTYPE operation against a key holding the wrong kind of value")

// EncodeRecord builds a tree record, enforcing the key and payload size
// caps (the payload cap applies to a hash's whole encoded field set).
func EncodeRecord(r Record) ([]byte, error) {
	return AppendRecord(nil, r.Key, r.Type, r.Expire, r.Value)
}

// AppendRecord appends the record's encoding to dst.
func AppendRecord[K ~string | ~[]byte](dst []byte, key K, typ RecType, expire int64, value []byte) ([]byte, error) {
	dst, err := AppendHeader(slices.Grow(dst, headerLen(len(key))+len(value)), key, typ, expire)
	if err != nil {
		return nil, err
	}
	if err := blob.CheckWrite(int64(len(value)), MaxValueLen); err != nil {
		return nil, fmt.Errorf("%w: %d bytes exceeds %d", ErrValueTooLong, len(value), MaxValueLen)
	}
	return append(dst, value...), nil
}

// AppendHeader appends the encoding of a record's header — everything
// ahead of its payload — to dst. The serving path frames a value still in
// the connection's input buffer this way, in a scratch buffer its session
// owns, and hands header and value to the tree as two parts.
func AppendHeader[K ~string | ~[]byte](dst []byte, key K, typ RecType, expire int64) ([]byte, error) {
	if err := blob.CheckWrite(int64(len(key)), MaxKeyLen); err != nil {
		return nil, fmt.Errorf("%w: %d bytes exceeds %d", ErrKeyTooLong, len(key), MaxKeyLen)
	}
	dst = append(dst, byte(len(key)), byte(len(key)>>8))
	dst = append(dst, key...)
	flags := byte(typ) & recTypeMask
	if expire == 0 {
		return append(dst, flags), nil
	}
	dst = append(dst, flags|recFlagExpire)
	return binary.LittleEndian.AppendUint64(dst, uint64(expire)), nil
}

// headerLen is the longest header a record with a keyLen-byte key has.
func headerLen(keyLen int) int { return 2 + keyLen + 1 + 8 }

// KeyPrefixLen is the length of the leading [key length][key] bytes of
// rec, a record or its header: two records with equal prefixes belong to
// the same key, which is what a guarded tree upsert compares before
// replacing one with the other.
func KeyPrefixLen(rec []byte) int { return 2 + (int(rec[0]) | int(rec[1])<<8) }

// RecordKey is the key of rec, an encoding AppendRecord or AppendHeader
// built, as a view.
func RecordKey(rec []byte) []byte { return rec[2:KeyPrefixLen(rec)] }

// Header is a record's metadata, decoded from its leading bytes without
// touching the payload.
type Header struct {
	Key    []byte // a view into the decoded bytes
	Type   RecType
	Expire int64 // UNIX nanoseconds; 0 = no expiry
	Size   int   // header length: the payload is everything from here on
}

// Expired reports whether the record's deadline has passed at now.
func (h *Header) Expired(now int64) bool {
	return h.Expire != 0 && h.Expire <= now
}

// DecodeHeader decodes the header of the record starting at b; b may end
// anywhere past it.
func DecodeHeader(b []byte) (Header, error) {
	if len(b) < 2 {
		return Header{}, errors.New("shard: short record")
	}
	kl := KeyPrefixLen(b) - 2
	if err := blob.CheckRead(int64(kl), MaxKeyLen); err != nil {
		return Header{}, fmt.Errorf("shard: record key length: %w", err)
	}
	if len(b) < 2+kl+1 {
		return Header{}, errors.New("shard: truncated record")
	}
	h := Header{Key: b[2 : 2+kl], Size: 2 + kl + 1}
	flags := b[2+kl]
	if flags&^byte(recFlagsKnown) != 0 {
		return Header{}, fmt.Errorf("shard: unknown record flags %#x", flags)
	}
	h.Type = RecType(flags & recTypeMask)
	if flags&recFlagExpire != 0 {
		if len(b) < h.Size+8 {
			return Header{}, errors.New("shard: truncated record expiry")
		}
		h.Expire = int64(binary.LittleEndian.Uint64(b[h.Size:]))
		h.Size += 8
	}
	return h, nil
}

// LoadHeader decodes the header of a record located in a tree, loading
// only its leading bytes into buf — the key length, then as much as a
// header with that key spans — never the payload. The header's Key is a
// view into the returned buffer.
func LoadHeader(v pds.Stored, buf []byte) (Header, []byte, error) {
	n := min(v.Len(), 2)
	buf = append(buf[:0], make([]byte, n)...)
	v.Load(buf, 0)
	if n == 2 {
		n = min(v.Len(), headerLen(KeyPrefixLen(buf)-2))
		buf = append(buf[:0], make([]byte, n)...)
		v.Load(buf, 0)
	}
	h, err := DecodeHeader(buf)
	return h, buf, err
}

// DecodeRecord splits a tree record back into its parts. The returned
// Value aliases b.
func DecodeRecord(b []byte) (Record, error) {
	h, err := DecodeHeader(b)
	if err != nil {
		return Record{}, err
	}
	return Record{Key: string(h.Key), Type: h.Type, Expire: h.Expire, Value: b[h.Size:]}, nil
}

// HashField is one field of a hash value.
type HashField struct {
	Name  []byte
	Value []byte
}

// AppendHashFields appends the encoding of a hash payload to dst: a
// two-byte field count, then per field a two-byte name length, the name,
// a four-byte value length, and the value. Fields are sorted by name, in
// place, so equal hashes encode to equal bytes regardless of update
// order.
func AppendHashFields(dst []byte, fields []HashField) []byte {
	slices.SortFunc(fields, func(a, b HashField) int { return bytes.Compare(a.Name, b.Name) })
	n := 2
	for _, f := range fields {
		n += 2 + len(f.Name) + 4 + len(f.Value)
	}
	dst = binary.LittleEndian.AppendUint16(slices.Grow(dst, n), uint16(len(fields)))
	for _, f := range fields {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Name)))
		dst = append(dst, f.Name...)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Value)))
		dst = append(dst, f.Value...)
	}
	return dst
}

// DecodeHashFields appends the fields of the hash payload p to dst. The
// fields' slices alias p.
func DecodeHashFields(dst []HashField, p []byte) ([]HashField, error) {
	if len(p) < 2 {
		return dst, errors.New("shard: short hash payload")
	}
	n := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		if len(p) < 2 {
			return dst, errors.New("shard: truncated hash field")
		}
		nl := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < nl+4 {
			return dst, errors.New("shard: truncated hash field name")
		}
		name := p[:nl]
		p = p[nl:]
		vl := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if err := blob.CheckRead(int64(vl), MaxValueLen); err != nil {
			return dst, fmt.Errorf("shard: hash field value length: %w", err)
		}
		if len(p) < vl {
			return dst, errors.New("shard: truncated hash field value")
		}
		dst = append(dst, HashField{Name: name, Value: p[:vl]})
		p = p[vl:]
	}
	if len(p) != 0 {
		return dst, errors.New("shard: trailing bytes in hash payload")
	}
	return dst, nil
}
