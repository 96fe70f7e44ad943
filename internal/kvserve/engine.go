package kvserve

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/mtm"
	"repro/internal/pds"
	"repro/internal/resp"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// command is one parsed request: argv (verb included) and what resolving
// the verb once tells every later stage — its registry definition (nil
// for an unknown verb) and, for a single-key command the batch
// partitioner may run concurrently with others, its key's hash. The
// arguments are views into the connection's input buffer.
type command struct {
	args  [][]byte
	def   *cmdDef
	keyed bool
	h     uint64 // s.hash(args[1]) when keyed

	// Set by the partition that ran the command: which one, and where
	// its reply ends in that partition's sink.
	part, end int
}

// lookup resolves a verb case-insensitively without allocating.
func lookup[K ~string | ~[]byte](verb K) *cmdDef {
	var up [16]byte // longer than any registered verb
	if len(verb) > len(up) {
		return nil
	}
	for i := 0; i < len(verb); i++ {
		c := verb[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	return registry[string(up[:len(verb)])]
}

// resolve classifies an argv for the engine and the batch partitioner: a
// single-key command (the registry's keyed flag, within its arity and
// keyedMax) runs concurrently with others, hashed by its key; everything
// else — unknown verbs and arity violations included — is a barrier that
// runs alone on the session goroutine.
func (s *Server) resolve(args [][]byte) command {
	cmd := command{args: args}
	if len(args) == 0 {
		return cmd
	}
	d := lookup(args[0])
	cmd.def = d
	if d != nil && d.keyed && d.arityOK(len(args)) && (d.keyedMax == 0 || len(args) <= d.keyedMax) {
		cmd.keyed, cmd.h = true, s.hash(args[1])
	}
	return cmd
}

// call is a command's execution context, and everything in it outlives
// the command: a session owns one for the commands it runs itself and one
// per batch partition, so serving a command allocates none of its argv,
// its record scratch or its reply.
type call struct {
	s *Server
	w *resp.Writer // reply sink: handlers render into it as they go

	args   [][]byte // the running command's argv
	h      uint64   // ... and its key's hash, when it is a keyed command
	parent uint64   // exec span id
	n      int64    // handlers' integer result; transaction bodies reset it, as conflict retries rerun them
	failed bool     // the reply is an error
	quit   bool     // the command ends the session

	rec    []byte            // record scratch: an encoding on its way in, a header or record on its way out
	recs   [][]byte          // MSET's records, views into rec
	fields []shard.HashField // a hash's fields, decoded
	hash   []byte            // a hash's payload, encoded
}

// run serves cmd as one request: the request span — a root (parent 0):
// when it outlasts the flight recorder's threshold, the whole tree under
// it, exec, txn and its commit phases, is captured as one slow entry —
// then counters and latency.
func (c *call) run(cmd *command) {
	req := telemetry.SpanBegin(telemetry.PhaseRequest, 0, 0)
	start := time.Now()
	c.exec(cmd, req.ID)
	lat := time.Since(start).Nanoseconds()
	req.End()
	telReqs.Inc()
	telReqLat.Observe(lat)
	if c.failed {
		telErrs.Inc()
	}
	if telemetry.TraceEnabled() {
		size := 0
		for _, a := range cmd.args {
			size += len(a)
		}
		telemetry.Emit(telemetry.EvRequest, 0, uint64(lat), uint64(size))
	}
}

// exec runs one resolved command under an exec span of the request span
// req: per-verb counter, arity contract, then the handler, which
// attributes its transactions to the exec span.
func (c *call) exec(cmd *command, req uint64) {
	exec := telemetry.SpanBegin(telemetry.PhaseExec, 0, req)
	c.args, c.h, c.parent = cmd.args, cmd.h, exec.ID
	c.failed, c.quit = false, false
	switch d := cmd.def; {
	case d == nil:
		c.fail("unknown command")
	case !d.arityOK(len(c.args)):
		d.calls.Inc()
		c.fail("usage: " + d.usage)
	default:
		d.calls.Inc()
		d.handler(c)
	}
	exec.End()
}

// fail answers the command with an error. Bare engine errors gain redis's
// ERR prefix; typed errors (WRONGTYPE) pass through so clients can match
// on the error class.
func (c *call) fail(msg string) {
	c.failed = true
	if !strings.HasPrefix(msg, "WRONGTYPE") {
		msg = "ERR " + msg
	}
	c.w.WriteError(msg)
}

// shard is the shard a key hashing to h lives on.
func (s *Server) shard(h uint64) int { return int(h % uint64(s.store.NShards())) }

// update runs fn as one durable transaction on the command's key's shard.
func (c *call) update(fn func(n *node, tx *mtm.Tx) error) error {
	return c.s.store.Update(c.parent, c.s.shard(c.h), fn)
}

// view runs fn on a snapshot of the command's key's shard. A conflicting
// commit reruns fn: a handler that renders inside it cuts the sink back to
// where the command's reply began before it renders again.
func (c *call) view(fn func(n *node, r mtm.Reader) error) error {
	return c.s.store.View(c.parent, c.s.shard(c.h), fn)
}

// errHashCollision reports a write whose key hashes onto a slot already
// holding a different key's record; the put is refused instead of
// silently destroying the colliding key's data.
var errHashCollision = errors.New("hash collision with a different stored key")

// putRecord stores the record head‖tail — an encoded record whole, or its
// header and a payload left where it is — at its key's tree slot h, in one
// descent that compares the stored key in place: overwriting the same key
// is the normal update, overwriting a colliding key would destroy its
// record.
func putRecord(n *node, tx *mtm.Tx, h uint64, head, tail []byte) error {
	err := n.tree.Upsert(tx, h, head, tail, shard.KeyPrefixLen(head))
	if err == pds.ErrMismatch {
		return fmt.Errorf("%w: %q at slot %#x", errHashCollision, shard.RecordKey(head), h)
	}
	return err
}

// find locates the record stored at slot h through any Reader and decodes
// its header into c.rec; ok is false when the slot is empty or holds
// another key's record (a hash collision). The payload is not loaded: v
// hands it out, whole or in part, to whoever needs it.
func (c *call) find(n *node, r mtm.Reader, h uint64, key []byte) (hdr shard.Header, v pds.Stored, ok bool, err error) {
	v, err = n.tree.Find(r, h)
	if err == pds.ErrNotFound {
		return hdr, v, false, nil
	}
	if err == nil {
		hdr, c.rec, err = shard.LoadHeader(v, c.rec)
	}
	return hdr, v, err == nil && bytes.Equal(hdr.Key, key), err
}

// lookup is find for a read: an expired record answers ok=false like an
// absent one, and is additionally queued for lazy reaping so a read
// eventually reclaims its space.
func (c *call) lookup(n *node, r mtm.Reader, k int, h uint64, key []byte) (shard.Header, pds.Stored, bool, error) {
	hdr, v, ok, err := c.find(n, r, h, key)
	if ok && hdr.Expired(c.s.now()) {
		c.s.reapLater(k, h)
		ok = false
	}
	return hdr, v, ok, err
}

// record is lookup for the running command's key.
func (c *call) record(n *node, r mtm.Reader) (shard.Header, pds.Stored, bool, error) {
	return c.lookup(n, r, c.s.shard(c.h), c.h, c.args[1])
}

// payload loads the payload of the record lookup just found into c.rec,
// behind its header. The view it returns, like hdr.Key, lives until the
// next use of c.rec.
func (c *call) payload(hdr shard.Header, v pds.Stored) []byte {
	c.rec = append(c.rec[:hdr.Size], make([]byte, v.Len()-hdr.Size)...)
	v.Load(c.rec[hdr.Size:], hdr.Size)
	return c.rec[hdr.Size:]
}

func checkKeySize(key []byte) error {
	if len(key) > MaxKeyLen {
		return fmt.Errorf("key too long (max %d bytes)", MaxKeyLen)
	}
	return nil
}

func checkValueSize(n int) error {
	if n > MaxValueLen {
		return fmt.Errorf("value too long (max %d bytes)", MaxValueLen)
	}
	return nil
}

// --- string command handlers ---

// cmdSet stores a string record, optionally with an expiry deadline
// (SET <key> <value> EX <seconds> | PX <milliseconds>). The value's one
// copy is from the input buffer into the tree's value block: c.rec holds
// only the record header that frames it.
func cmdSet(c *call) {
	key, value := c.args[1], c.args[2]
	err := checkKeySize(key)
	if err == nil {
		err = checkValueSize(len(value))
	}
	var deadline int64
	if err == nil && len(c.args) > 3 {
		if len(c.args) != 5 {
			err = errors.New("usage: " + registry["SET"].usage)
		} else {
			deadline, err = parseExpiry(c.s.now(), c.args[3], c.args[4])
		}
	}
	if err == nil {
		c.rec, err = shard.AppendHeader(c.rec[:0], key, shard.RecString, deadline)
	}
	if err == nil {
		err = c.update(func(n *node, tx *mtm.Tx) error {
			if err := putRecord(n, tx, c.h, c.rec, value); err != nil || deadline == 0 {
				return err
			}
			return c.s.wheelAdd(n, tx, c.h, deadline)
		})
	}
	if err != nil {
		c.fail(err.Error())
		return
	}
	c.w.WriteSimple("OK")
}

// parseExpiry converts an EX/PX option into an absolute deadline.
func parseExpiry(now int64, opt, arg []byte) (int64, error) {
	d, err := strconv.ParseInt(string(arg), 10, 64)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("invalid expire time %q", arg)
	}
	switch {
	case bytes.EqualFold(opt, []byte("EX")):
		return now + d*int64(time.Second), nil
	case bytes.EqualFold(opt, []byte("PX")):
		return now + d*int64(time.Millisecond), nil
	}
	return 0, fmt.Errorf("unknown SET option %q", opt)
}

// cmdGet answers a string value with its one copy: from the tree's value
// block into the reply.
func cmdGet(c *call) {
	mark := c.w.Len()
	err := c.view(func(n *node, r mtm.Reader) error {
		c.w.Truncate(mark)
		hdr, v, ok, err := c.record(n, r)
		if err != nil {
			return err
		}
		if !ok {
			c.w.WriteNull()
			return nil
		}
		if hdr.Type != shard.RecString {
			return shard.ErrWrongType
		}
		v.Load(c.w.Bulk(v.Len()-hdr.Size), hdr.Size)
		return nil
	})
	if err != nil {
		c.w.Truncate(mark)
		c.fail(err.Error())
	}
}

// touched is the set of shards keys hash to, as a bit mask (a store has at
// most shard.MaxShards = 64): multi-key commands visit those shards in
// ascending order and pick their keys out again on each.
func (s *Server) touched(keys [][]byte) (mask uint64) {
	for _, key := range keys {
		mask |= 1 << uint(s.shard(s.hash(key)))
	}
	return mask
}

// cmdDel serves DEL and MDEL: every named key is deleted, one transaction
// per touched shard in ascending order, and the reply is how many were
// present. An expired-but-unswept record is physically removed yet counts
// as absent, so the oracle "an expired key never resurrects" extends to
// the count.
func cmdDel(c *call) {
	keys, s := c.args[1:], c.s
	deleted := int64(0)
	for mask := s.touched(keys); mask != 0; mask &= mask - 1 {
		k := bits.TrailingZeros64(mask)
		err := s.store.Update(c.parent, k, func(n *node, tx *mtm.Tx) error {
			c.n = 0
			now := s.now()
			for _, key := range keys {
				h := s.hash(key)
				if s.shard(h) != k {
					continue
				}
				hdr, _, ok, err := c.find(n, tx, h, key)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				if err := n.tree.Delete(tx, h); err != nil {
					return err
				}
				if !hdr.Expired(now) {
					c.n++
				}
			}
			return nil
		})
		if err != nil {
			c.fail(err.Error())
			return
		}
		deleted += c.n
	}
	c.w.WriteInt(deleted)
}

// cmdMGet answers every key from per-shard snapshots, visiting shards in
// ascending order: all answers from one shard reflect one committed
// snapshot. Keys holding non-string records answer nil, like redis.
func cmdMGet(c *call) {
	keys, s := c.args[1:], c.s
	vals := make([][]byte, len(keys)) // nil = absent
	for mask := s.touched(keys); mask != 0; mask &= mask - 1 {
		k := bits.TrailingZeros64(mask)
		err := s.store.View(c.parent, k, func(n *node, r mtm.Reader) error {
			for i, key := range keys {
				h := s.hash(key)
				if s.shard(h) != k {
					continue
				}
				hdr, v, ok, err := c.lookup(n, r, k, h, key)
				if err != nil {
					return err
				}
				if vals[i] = nil; ok && hdr.Type == shard.RecString {
					vals[i] = make([]byte, v.Len()-hdr.Size)
					v.Load(vals[i], hdr.Size)
				}
			}
			return nil
		})
		if err != nil {
			c.fail(err.Error())
			return
		}
	}
	c.w.WriteArrayHeader(len(keys))
	for _, val := range vals {
		if val == nil {
			c.w.WriteNull()
		} else {
			c.w.WriteBulk(val)
		}
	}
}

// cmdMSet stores every pair atomically.
func cmdMSet(c *call) {
	args := c.args[1:]
	if len(args)%2 != 0 {
		c.fail("usage: " + registry["MSET"].usage)
		return
	}
	// The records sit back to back in c.rec. Growing it mid-loop moves
	// the buffer, not the records already sliced out of the old one.
	c.recs, c.rec = c.recs[:0], c.rec[:0]
	for i := 0; i < len(args); i += 2 {
		err := checkKeySize(args[i])
		if err == nil {
			err = checkValueSize(len(args[i+1]))
		}
		start := len(c.rec)
		if err == nil {
			c.rec, err = shard.AppendRecord(c.rec, args[i], shard.RecString, 0, args[i+1])
		}
		if err != nil {
			c.fail(err.Error())
			return
		}
		c.recs = append(c.recs, c.rec[start:len(c.rec):len(c.rec)])
	}
	if err := c.s.store.MPut(c.parent, c.recs); err != nil {
		c.fail(err.Error())
		return
	}
	c.w.WriteSimple("OK")
}

// cmdCount answers the live key count: a per-shard snapshot scan that
// skips records past their expiry deadline, so an unswept-but-expired
// key is never counted.
func cmdCount(c *call) {
	st := c.s.store
	total := int64(0)
	for k := 0; k < st.NShards(); k++ {
		err := st.View(c.parent, k, func(n *node, r mtm.Reader) error {
			now := c.s.now()
			c.n = 0
			n.tree.Scan(r, 0, func(_ uint64, val []byte) bool {
				hdr, err := shard.DecodeHeader(val)
				if err == nil && !hdr.Expired(now) {
					c.n++
				}
				return true
			})
			return nil
		})
		if err != nil {
			c.fail(err.Error())
			return
		}
		total += c.n
	}
	c.w.WriteInt(total)
}

// session is one connection's serving state, allocated once and reused for
// every batch: the batch itself, a call for the commands the session
// goroutine runs in order — rendering straight into the connection's
// reply buffer — and a call per partition, each with a sink of its own,
// for keyed commands of a partitioned batch. Partition 0 runs on the
// session goroutine; each other partition has a worker goroutine of its
// own, started at the session's first partitioned batch and stopped by
// close.
type session struct {
	s       *Server
	cmds    []command // the batch being served, in request order
	out     call
	parts   [batchPartitions]call
	pending [batchPartitions][]int         // command indices queued per partition
	work    [batchPartitions]chan struct{} // a token runs the partition's pending commands; nil until started
	wg      sync.WaitGroup                 // partitions still running the current run
}

func (s *Server) newSession(w *resp.Writer) *session {
	ss := &session{s: s, cmds: make([]command, 0, maxBatch), out: call{s: s, w: w}}
	for p := range ss.parts {
		ss.parts[p] = call{s: s, w: new(resp.Writer)}
	}
	return ss
}

// serve answers the batch in ss.cmds into ss.out.w, in request order, and
// reports whether a command (QUIT) closed the session; commands pipelined
// after it are dropped unanswered. In a batch of at least minPartitioned
// commands, runs of keyed single-key commands spread across
// batchPartitions partitions by key hash; every other command is a barrier
// that waits for the run before it and executes alone on the session
// goroutine.
func (ss *session) serve() (quit bool) {
	partitioned := len(ss.cmds) >= minPartitioned
	from := 0
	for i := range ss.cmds {
		if partitioned && ss.cmds[i].keyed {
			continue
		}
		ss.spread(from, i)
		ss.out.run(&ss.cmds[i])
		if ss.out.quit {
			return true
		}
		from = i + 1
	}
	ss.spread(from, len(ss.cmds))
	return false
}

// spread runs cmds[from:to], all keyed, across the partitions — same key,
// same partition, so per-key order is preserved — and splices their
// replies into the connection's buffer in request order.
func (ss *session) spread(from, to int) {
	if to-from <= 2 {
		// Not worth handing to the partition workers.
		for i := from; i < to; i++ {
			ss.out.run(&ss.cmds[i])
		}
		return
	}
	for i := from; i < to; i++ {
		p := int(ss.cmds[i].h % batchPartitions)
		ss.pending[p] = append(ss.pending[p], i)
	}
	if ss.work[1] == nil {
		ss.start()
	}
	for p := 1; p < batchPartitions; p++ {
		if len(ss.pending[p]) > 0 {
			ss.wg.Add(1)
			ss.work[p] <- struct{}{}
		}
	}
	ss.runPartition(0)
	ss.wg.Wait()
	var off [batchPartitions]int
	for i := from; i < to; i++ {
		cmd := &ss.cmds[i]
		ss.out.w.Write(ss.parts[cmd.part].w.Bytes()[off[cmd.part]:cmd.end])
		off[cmd.part] = cmd.end
	}
	for p := range ss.parts {
		ss.parts[p].w.Truncate(0)
		ss.pending[p] = ss.pending[p][:0]
	}
}

// start launches the partition workers. The server's WaitGroup counts
// them, so Close waits for them as it does for their session.
func (ss *session) start() {
	for p := 1; p < batchPartitions; p++ {
		ss.work[p] = make(chan struct{}, 1)
		ss.s.wg.Add(1)
		go func(p int) {
			defer ss.s.wg.Done()
			for range ss.work[p] {
				ss.runPartition(p)
				ss.wg.Done()
			}
		}(p)
	}
}

// close stops the partition workers, if they were started.
func (ss *session) close() {
	for p := 1; p < batchPartitions; p++ {
		if ss.work[p] != nil {
			close(ss.work[p])
		}
	}
}

func (ss *session) runPartition(p int) {
	c := &ss.parts[p]
	for _, i := range ss.pending[p] {
		c.run(&ss.cmds[i])
		ss.cmds[i].part, ss.cmds[i].end = p, c.w.Len()
	}
}
