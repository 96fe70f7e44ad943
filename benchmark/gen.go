package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
)

// farFutureEX is the EX argument of opSetEx: eleven days out, so the wheel
// is written on the commit path but no deadline ever falls due in a run.
const farFutureEX = "1000000"

// op is one generated command plus what its reply must be. Versions are
// assigned at generation time: the server preserves per-key order inside a
// pipelined window and each key belongs to exactly one connection, so the
// model is exact when the command is sent.
type op struct {
	kind  opKind
	n     int              // keys used (msetKeys for opMSet, else 1)
	idx   [msetKeys]int32  // key indices within the connection's share
	field uint8            // hash field, opHSet/opHGet
	ver   [msetKeys]uint32 // version written, or version a read must return
}

// model is one connection's view of the keys it owns: the version of the
// last acknowledged write per key (0 = never written).
type model struct {
	conn int
	str  []uint32 // by string-key index
	hash []uint32 // by hash-key index*hashFields + field
}

func newModel(w *workload, conn int) *model {
	c := w.clientConns()
	return &model{
		conn: conn,
		str:  make([]uint32, w.keys/c),
		hash: make([]uint32, w.hashKeys/c*hashFields),
	}
}

// userBytes is the live key+value bytes the model holds: the denominator
// of pm_bytes_per_user_byte.
func (m *model) userBytes(valueSize int) int64 {
	var n int64
	for _, v := range m.str {
		if v != 0 {
			n += int64(keyLen + valueSize)
		}
	}
	for i := 0; i < len(m.hash); i += hashFields {
		if m.hash[i] != 0 {
			n += int64(keyLen + hashFields*(2+valueSize))
		}
	}
	return n
}

// appendKey writes the 16-byte key of (prefix, conn, idx): "k01:000000000042".
func appendKey(dst []byte, prefix byte, conn int, idx int32) []byte {
	var b [keyLen]byte
	b[0] = prefix
	b[1] = byte('0' + conn/10%10)
	b[2] = byte('0' + conn%10)
	b[3] = ':'
	v := idx
	for i := keyLen - 1; i > 3; i-- {
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return append(dst, b[:]...)
}

// valueID names what a value belongs to, so a reply carrying another key's
// (or another field's) bytes is caught, not just a stale version.
func valueID(hash bool, conn int, idx int32, field uint8) uint64 {
	id := uint64(conn)<<56 | uint64(uint32(idx))<<8 | uint64(field)
	if hash {
		id |= 1 << 48
	}
	return id
}

// fillValue writes the value of (id, version) into dst: the id, the
// version, then a xorshift stream seeded by both, so every byte of a reply
// is checkable and no two versions share a suffix. len(dst) is a multiple
// of 8 and at least 16.
func fillValue(dst []byte, id uint64, ver uint32) {
	binary.LittleEndian.PutUint64(dst, id)
	binary.LittleEndian.PutUint64(dst[8:], uint64(ver))
	x := id*0x9e3779b97f4a7c15 ^ uint64(ver)<<32 | 1
	for i := 16; i+8 <= len(dst); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
}

// describeValue renders a value's header for wrong-reply diagnostics.
func describeValue(b []byte) string {
	if len(b) < 16 {
		return fmt.Sprintf("%d bytes %q", len(b), b)
	}
	return fmt.Sprintf("%d bytes id=%#x ver=%d", len(b),
		binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:]))
}

// generator produces one connection's seeded command stream and keeps its
// model in step.
type generator struct {
	w     *workload
	m     *model
	rng   *rand.Rand
	zipf  *rand.Zipf
	shift int32 // seed-dependent rotation of the Zipf ranks over the keys
	block [mixBlock]opKind
	pos   int
}

func newGenerator(w *workload, m *model, seed int64) *generator {
	g := &generator{w: w, m: m, pos: mixBlock}
	g.rng = rand.New(rand.NewSource(seed*7919 + int64(m.conn) + 1))
	if w.zipf > 0 {
		g.zipf = rand.NewZipf(g.rng, w.zipf, 1, uint64(len(m.str)-1))
		g.shift = int32(g.rng.Intn(len(m.str)))
	}
	i := 0
	for k, n := range w.mix {
		for ; n > 0; n-- {
			g.block[i] = opKind(k)
			i++
		}
	}
	if i != mixBlock {
		panic(fmt.Sprintf("workload %s: mix sums to %d, want %d", w.name, i, mixBlock))
	}
	return g
}

func (g *generator) strKey() int32 {
	if g.zipf != nil {
		return (int32(g.zipf.Uint64()) + g.shift) % int32(len(g.m.str))
	}
	return int32(g.rng.Intn(len(g.m.str)))
}

// next fills o with the stream's next command. The mix is stratified:
// every block of mixBlock ops holds exactly the workload's share of each
// kind, in seeded order, so per-op counts do not wander with the seed.
func (g *generator) next(o *op) {
	if g.pos == mixBlock {
		g.rng.Shuffle(mixBlock, func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
		g.pos = 0
	}
	*o = op{kind: g.block[g.pos], n: 1}
	g.pos++
	switch o.kind {
	case opGet, opSet, opSetEx:
		o.idx[0] = g.strKey()
	case opMSet:
		o.n = msetKeys
		for i := 0; i < msetKeys; {
			if k := g.strKey(); !containsIdx(o.idx[:i], k) {
				o.idx[i] = k
				i++
			}
		}
	case opHSet, opHGet:
		o.idx[0] = int32(g.rng.Intn(len(g.m.hash) / hashFields))
		o.field = uint8(g.rng.Intn(hashFields))
	}
	g.m.bind(o)
}

// bind gives o its versions from the model: a write takes its keys' next
// versions, a read expects the current one.
func (m *model) bind(o *op) {
	switch o.kind {
	case opGet:
		o.ver[0] = m.str[o.idx[0]]
	case opSet, opSetEx, opMSet:
		for i := 0; i < o.n; i++ {
			m.str[o.idx[i]]++
			o.ver[i] = m.str[o.idx[i]]
		}
	case opHSet, opHGet:
		slot := int(o.idx[0])*hashFields + int(o.field)
		if o.kind == opHSet {
			m.hash[slot]++
		}
		o.ver[0] = m.hash[slot]
	}
}

func containsIdx(s []int32, k int32) bool {
	for _, v := range s {
		if v == k {
			return true
		}
	}
	return false
}

// Preload and read-back walk the keyspace in order instead of drawing from
// the stream. Slot i < len(str) is string key i; later slots are hash keys.

func (m *model) slots() int { return len(m.str) + len(m.hash)/hashFields }

// preloadOp writes version 1 of slot i (all four fields for a hash key).
func (m *model) preloadOp(i int, o *op) {
	if i < len(m.str) {
		*o = op{kind: opSet, n: 1}
		o.idx[0] = int32(i)
		m.str[i] = 1
		o.ver[0] = 1
		return
	}
	h := i - len(m.str)
	*o = op{kind: opHSet, n: hashFields} // n = fields: the all-fields form
	o.idx[0] = int32(h)
	for f := 0; f < hashFields; f++ {
		m.hash[h*hashFields+f] = 1
	}
	o.ver[0] = 1
}

// readbackOps reads slot i back: one GET, or one HGET per field.
func (m *model) readbackOps(i int, out []op) []op {
	if i < len(m.str) {
		o := op{kind: opGet, n: 1}
		o.idx[0] = int32(i)
		o.ver[0] = m.str[i]
		return append(out, o)
	}
	h := i - len(m.str)
	for f := 0; f < hashFields; f++ {
		o := op{kind: opHGet, n: 1, field: uint8(f)}
		o.idx[0] = int32(h)
		o.ver[0] = m.hash[h*hashFields+f]
		out = append(out, o)
	}
	return out
}

// --- wire form ---

func appendBulk(dst, b []byte) []byte {
	dst = append(dst, '$')
	dst = appendInt(dst, len(b))
	dst = append(dst, b...)
	return append(dst, '\r', '\n')
}

func appendInt(dst []byte, n int) []byte {
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	dst = append(dst, b[i:]...)
	return append(dst, '\r', '\n')
}

func appendArrayHeader(dst []byte, n int) []byte {
	return appendInt(append(dst, '*'), n)
}

var fieldNames = [hashFields][]byte{[]byte("f0"), []byte("f1"), []byte("f2"), []byte("f3")}

// encoder turns ops into RESP commands and checks replies, reusing its
// scratch buffers so the client allocates nothing per op in steady state.
type encoder struct {
	conn      int
	valueSize int
	key, val  []byte
}

func newEncoder(w *workload, conn int) *encoder {
	return &encoder{conn: conn, valueSize: w.valueSize, val: make([]byte, w.valueSize)}
}

func (e *encoder) bulkKey(dst []byte, prefix byte, idx int32) []byte {
	e.key = appendKey(e.key[:0], prefix, e.conn, idx)
	return appendBulk(dst, e.key)
}

func (e *encoder) bulkValue(dst []byte, hash bool, idx int32, field uint8, ver uint32) []byte {
	fillValue(e.val, valueID(hash, e.conn, idx, field), ver)
	return appendBulk(dst, e.val)
}

// appendCommand appends o's RESP array to dst.
func (e *encoder) appendCommand(dst []byte, o *op) []byte {
	switch o.kind {
	case opGet:
		dst = appendBulk(appendArrayHeader(dst, 2), []byte("GET"))
		dst = e.bulkKey(dst, 'k', o.idx[0])
	case opSet:
		dst = appendBulk(appendArrayHeader(dst, 3), []byte("SET"))
		dst = e.bulkKey(dst, 'k', o.idx[0])
		dst = e.bulkValue(dst, false, o.idx[0], 0, o.ver[0])
	case opSetEx:
		dst = appendBulk(appendArrayHeader(dst, 5), []byte("SET"))
		dst = e.bulkKey(dst, 'k', o.idx[0])
		dst = e.bulkValue(dst, false, o.idx[0], 0, o.ver[0])
		dst = appendBulk(dst, []byte("EX"))
		dst = appendBulk(dst, []byte(farFutureEX))
	case opMSet:
		dst = appendBulk(appendArrayHeader(dst, 1+2*o.n), []byte("MSET"))
		for i := 0; i < o.n; i++ {
			dst = e.bulkKey(dst, 'k', o.idx[i])
			dst = e.bulkValue(dst, false, o.idx[i], 0, o.ver[i])
		}
	case opHGet:
		dst = appendBulk(appendArrayHeader(dst, 3), []byte("HGET"))
		dst = e.bulkKey(dst, 'h', o.idx[0])
		dst = appendBulk(dst, fieldNames[o.field])
	case opHSet:
		first, last := o.field, o.field
		if o.n == hashFields { // preload: every field in one command
			first, last = 0, hashFields-1
		}
		dst = appendBulk(appendArrayHeader(dst, 2+2*int(last-first+1)), []byte("HSET"))
		dst = e.bulkKey(dst, 'h', o.idx[0])
		for f := first; f <= last; f++ {
			dst = appendBulk(dst, fieldNames[f])
			dst = e.bulkValue(dst, true, o.idx[0], f, o.ver[0])
		}
	}
	return dst
}

// check reports whether r is the reply o must get; on a mismatch it also
// says why.
func (e *encoder) check(o *op, r *reply) (bool, string) {
	switch o.kind {
	case opSet, opSetEx, opMSet:
		if r.kind == '+' && string(r.data) == "OK" {
			return true, ""
		}
	case opHSet:
		// The stream only overwrites existing fields (0 added); the
		// preload creates all of them.
		want := int64(0)
		if o.n == hashFields {
			want = hashFields
		}
		if r.kind == ':' && r.n == want {
			return true, ""
		}
	case opGet, opHGet:
		if o.ver[0] == 0 {
			if r.kind == '$' && r.data == nil {
				return true, ""
			}
			break
		}
		fillValue(e.val, valueID(o.kind == opHGet, e.conn, o.idx[0], o.field), o.ver[0])
		if r.kind == '$' && bytes.Equal(r.data, e.val) {
			return true, ""
		}
		if r.kind == '$' {
			return false, fmt.Sprintf("%s conn %d key %d: got %s, want %s",
				opNames[o.kind], e.conn, o.idx[0], describeValue(r.data), describeValue(e.val))
		}
	}
	return false, fmt.Sprintf("%s conn %d key %d: unexpected reply %c %q (n=%d)",
		opNames[o.kind], e.conn, o.idx[0], r.kind, r.data, r.n)
}
