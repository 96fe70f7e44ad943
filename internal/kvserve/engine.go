package kvserve

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/mtm"
	"repro/internal/pds"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// request is one parsed command: argv (verb included), its registry
// definition, and a pre-computed error reply for unparseable input.
type request struct {
	args [][]byte
	def  *cmdDef
	bad  *Reply
}

// parseLine tokenizes one line-protocol command. Definitions with a
// lineSplit re-tokenize with SplitN so the last argument keeps its
// spaces (SET's value), exactly as the pre-registry parser did.
func (s *Server) parseLine(line string) request {
	trimmed := strings.TrimSpace(line)
	fields := strings.Fields(trimmed)
	if len(fields) == 0 {
		bad := errReply("unknown command")
		return request{bad: &bad}
	}
	def := registry[strings.ToUpper(fields[0])]
	if def == nil {
		bad := errReply("unknown command")
		return request{bad: &bad}
	}
	var parts []string
	if def.lineSplit > 0 {
		parts = strings.SplitN(trimmed, " ", def.lineSplit)
	} else {
		parts = fields
	}
	args := make([][]byte, len(parts))
	for i, p := range parts {
		args[i] = []byte(p)
	}
	return request{args: args, def: def}
}

// parseCommand wraps an argv decoded by the RESP reader. Arguments are
// binary-safe and already framed; only the verb needs resolving.
func (s *Server) parseCommand(args [][]byte) request {
	if len(args) == 0 {
		bad := errReply("unknown command")
		return request{bad: &bad}
	}
	def := registry[strings.ToUpper(string(args[0]))]
	if def == nil {
		bad := errReply("unknown command")
		return request{args: args, bad: &bad}
	}
	return request{args: args, def: def}
}

// exec runs one parsed request: per-verb counter, arity contract, then
// the handler. parent is the exec span commands attribute their
// transactions under.
func (s *Server) exec(pr request, parent uint64) Reply {
	if pr.bad != nil {
		return *pr.bad
	}
	pr.def.calls.Inc()
	if !pr.def.arityOK(len(pr.args)) {
		return errReply("usage: " + pr.def.usage)
	}
	c := &call{s: s, args: pr.args, parent: parent}
	return pr.def.handler(c)
}

// call is one command invocation's execution context.
type call struct {
	s      *Server
	args   [][]byte
	parent uint64 // exec span id
}

func (c *call) str(i int) string { return string(c.args[i]) }

func (c *call) update(key string, fn func(n *node, tx *mtm.Tx) error) error {
	st := c.s.store
	return st.Update(c.parent, st.ShardOf(key), fn)
}

func (c *call) view(key string, fn func(n *node, r mtm.Reader) error) error {
	st := c.s.store
	return st.View(c.parent, st.ShardOf(key), fn)
}

// errHashCollision reports a write whose key hashes onto a slot already
// holding a different key's record; the put is refused instead of
// silently destroying the colliding key's data.
var errHashCollision = errors.New("hash collision with a different stored key")

// putRecord stores rec at key's tree slot after comparing the stored
// full key: overwriting the same key is the normal update, overwriting a
// colliding key would destroy its record.
func (s *Server) putRecord(n *node, tx *mtm.Tx, key string, rec []byte) error {
	h := s.hash(key)
	raw, err := n.tree.Get(tx, h)
	if err == nil {
		k, derr := shard.DecodeRecordKey(raw)
		if derr != nil {
			return derr
		}
		if k != key {
			return fmt.Errorf("%w: %q vs stored %q", errHashCollision, key, k)
		}
	} else if err != pds.ErrNotFound {
		return err
	}
	return n.tree.Put(tx, h, rec)
}

// recordAt reads key's record on shard k through any Reader, resolving
// hash collisions against the stored full key. Absent, colliding, and
// expired slots answer ok=false; an expired record is additionally
// queued for lazy reaping so a read eventually reclaims its space.
func (s *Server) recordAt(n *node, r mtm.Reader, k int, key string) (shard.Record, bool, error) {
	raw, err := n.tree.Get(r, s.hash(key))
	if err == pds.ErrNotFound {
		return shard.Record{}, false, nil
	}
	if err != nil {
		return shard.Record{}, false, err
	}
	rec, err := shard.DecodeRecord(raw)
	if err != nil {
		return shard.Record{}, false, err
	}
	if rec.Key != key {
		return shard.Record{}, false, nil // hash collision with another key
	}
	if rec.Expired(s.now()) {
		s.reapLater(k, s.hash(key))
		return shard.Record{}, false, nil
	}
	return rec, true, nil
}

func (c *call) record(n *node, r mtm.Reader, key string) (shard.Record, bool, error) {
	return c.s.recordAt(n, r, c.s.store.ShardOf(key), key)
}

func checkKeySize(key string) error {
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
// (SET <key> <value> EX <seconds> | PX <milliseconds>). The line
// protocol tokenizes SET into exactly three arguments — the value is the
// rest of the line, spaces included — so expiry options are reachable
// over RESP only.
func cmdSet(c *call) Reply {
	key := c.str(1)
	value := c.args[2]
	if err := checkKeySize(key); err != nil {
		return errfReply(err)
	}
	if err := checkValueSize(len(value)); err != nil {
		return errfReply(err)
	}
	var deadline int64
	if len(c.args) > 3 {
		if len(c.args) != 5 {
			return errReply("usage: " + registry["SET"].usage)
		}
		if !c.s.store.SupportsTTL() {
			return errReply(errNoTTL)
		}
		d, err := parseExpiry(c.s.now(), c.str(3), c.args[4])
		if err != nil {
			return errfReply(err)
		}
		deadline = d
	}
	rec, err := shard.EncodeRecord(shard.Record{
		Key: key, Type: shard.RecString, Expire: deadline, Value: value,
	})
	if err != nil {
		return errfReply(err)
	}
	err = c.update(key, func(n *node, tx *mtm.Tx) error {
		if err := c.s.putRecord(n, tx, key, rec); err != nil {
			return err
		}
		if deadline != 0 {
			return c.s.wheelAdd(n, tx, c.s.hash(key), deadline)
		}
		return nil
	})
	if err != nil {
		return errfReply(err)
	}
	return simpleReply("OK")
}

// parseExpiry converts an EX/PX option into an absolute deadline.
func parseExpiry(now int64, opt string, arg []byte) (int64, error) {
	d, err := strconv.ParseInt(string(arg), 10, 64)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("invalid expire time %q", string(arg))
	}
	switch strings.ToUpper(opt) {
	case "EX":
		return now + d*int64(time.Second), nil
	case "PX":
		return now + d*int64(time.Millisecond), nil
	}
	return 0, fmt.Errorf("unknown SET option %q", opt)
}

func cmdGet(c *call) Reply {
	key := c.str(1)
	var out Reply
	err := c.view(key, func(n *node, r mtm.Reader) error {
		rec, ok, err := c.record(n, r, key)
		if err != nil {
			return err
		}
		if !ok {
			out = nilReply()
			return nil
		}
		if rec.Type != shard.RecString {
			return shard.ErrWrongType
		}
		out = bulkReply(append([]byte(nil), rec.Value...))
		return nil
	})
	if err != nil {
		return errfReply(err)
	}
	return out
}

// cmdDel deletes each named key, answering how many were present. An
// expired-but-unswept record is physically removed yet counts as absent,
// so the oracle "an expired key never resurrects" extends to DEL's
// return value.
func cmdDel(c *call) Reply {
	deleted := int64(0)
	for _, a := range c.args[1:] {
		key := string(a)
		n := int64(0)
		err := c.update(key, func(nd *node, tx *mtm.Tx) error {
			n = 0 // conflict retries rerun the closure
			raw, err := nd.tree.Get(tx, c.s.hash(key))
			if err == pds.ErrNotFound {
				return nil
			}
			if err != nil {
				return err
			}
			rec, err := shard.DecodeRecord(raw)
			if err != nil {
				return err
			}
			if rec.Key != key {
				return nil // hash collision with another key
			}
			if err := nd.tree.Delete(tx, c.s.hash(key)); err != nil {
				return err
			}
			if !rec.Expired(c.s.now()) {
				n = 1
			}
			return nil
		})
		if err != nil {
			return errfReply(err)
		}
		deleted += n
	}
	return intReply(deleted)
}

// cmdMGet answers every key from per-shard snapshots, visiting shards in
// ascending order: all answers from one shard reflect one committed
// snapshot. Keys holding non-string records answer nil, like redis.
func cmdMGet(c *call) Reply {
	keys := c.args[1:]
	st := c.s.store
	elems := make([]Reply, len(keys))
	parts := make([][]int, st.NShards())
	for i := range keys {
		k := st.ShardOf(string(keys[i]))
		parts[k] = append(parts[k], i)
	}
	for k, idxs := range parts {
		if len(idxs) == 0 {
			continue
		}
		err := st.View(c.parent, k, func(n *node, r mtm.Reader) error {
			for _, i := range idxs {
				rec, ok, err := c.s.recordAt(n, r, k, string(keys[i]))
				if err != nil {
					return err
				}
				if !ok || rec.Type != shard.RecString {
					elems[i] = nilReply()
					continue
				}
				elems[i] = bulkReply(append([]byte(nil), rec.Value...))
			}
			return nil
		})
		if err != nil {
			return errfReply(err)
		}
	}
	return arrayReply(elems)
}

// cmdMSet stores every pair atomically. The line protocol tokenizes by
// whitespace, so line-protocol MSET values cannot contain spaces — the
// odd-argument error says so and points at RESP, where bulk strings
// carry arbitrary bytes.
func cmdMSet(c *call) Reply {
	args := c.args[1:]
	if len(args)%2 != 0 {
		return errReply("usage: " + registry["MSET"].usage +
			" (line-protocol values cannot contain spaces; use the RESP port for binary values)")
	}
	keys := make([]string, 0, len(args)/2)
	recs := make([][]byte, 0, len(args)/2)
	for i := 0; i < len(args); i += 2 {
		key := string(args[i])
		if err := checkKeySize(key); err != nil {
			return errfReply(err)
		}
		if err := checkValueSize(len(args[i+1])); err != nil {
			return errfReply(err)
		}
		rec, err := shard.EncodeRecord(shard.Record{
			Key: key, Type: shard.RecString, Value: args[i+1],
		})
		if err != nil {
			return errfReply(err)
		}
		keys = append(keys, key)
		recs = append(recs, rec)
	}
	if err := c.s.store.MPut(c.parent, keys, recs); err != nil {
		return errfReply(err)
	}
	return simpleReply("OK")
}

// cmdMDel deletes every named key, one transaction per touched shard in
// ascending order, reporting how many were present.
func cmdMDel(c *call) Reply {
	st := c.s.store
	parts := make([][]string, st.NShards())
	for _, a := range c.args[1:] {
		k := st.ShardOf(string(a))
		parts[k] = append(parts[k], string(a))
	}
	deleted := int64(0)
	for k, keys := range parts {
		if len(keys) == 0 {
			continue
		}
		n := int64(0)
		err := st.Update(c.parent, k, func(nd *node, tx *mtm.Tx) error {
			n = 0 // conflict retries rerun the closure
			for _, key := range keys {
				raw, err := nd.tree.Get(tx, c.s.hash(key))
				if err == pds.ErrNotFound {
					continue
				}
				if err != nil {
					return err
				}
				rec, err := shard.DecodeRecord(raw)
				if err != nil {
					return err
				}
				if rec.Key != key {
					continue // hash collision with another key
				}
				if err := nd.tree.Delete(tx, c.s.hash(key)); err != nil {
					return err
				}
				if !rec.Expired(c.s.now()) {
					n++
				}
			}
			return nil
		})
		if err != nil {
			return errfReply(err)
		}
		deleted += n
	}
	return intReply(deleted)
}

// cmdCount answers the live key count: a per-shard snapshot scan that
// skips records past their expiry deadline, so an unswept-but-expired
// key is never counted.
func cmdCount(c *call) Reply {
	st := c.s.store
	total := int64(0)
	for k := 0; k < st.NShards(); k++ {
		err := st.View(c.parent, k, func(n *node, r mtm.Reader) error {
			now := c.s.now()
			live := int64(0)
			n.tree.Scan(r, 0, func(_ uint64, val []byte) bool {
				rec, err := shard.DecodeRecord(val)
				if err == nil && !rec.Expired(now) {
					live++
				}
				return true
			})
			total += live
			return nil
		})
		if err != nil {
			return errfReply(err)
		}
	}
	return intReply(total)
}

// --- rendering and dispatch ---

// renderLegacy turns a Reply into the line protocol's reply text. Errors
// always render as "ERROR <msg>"; definitions may override the rest
// (GET's VALUE/MISSING, DEL's OK/MISSING, MGET's per-key lines).
func renderLegacy(pr request, r Reply) string {
	if r.kind == replyError {
		return "ERROR " + r.str
	}
	if pr.def != nil && pr.def.legacy != nil {
		return pr.def.legacy(pr.args, r)
	}
	return legacyDefault(r)
}

func legacyDefault(r Reply) string {
	switch r.kind {
	case replySimple:
		return r.str
	case replyInt:
		return strconv.FormatInt(r.n, 10)
	case replyBulk:
		return string(r.bulk)
	case replyNil:
		return "MISSING"
	case replyBye:
		return "BYE"
	case replyArray:
		outs := make([]string, len(r.arr))
		for i, e := range r.arr {
			outs[i] = legacyDefault(e)
		}
		return strings.Join(outs, "\n")
	}
	return "ERROR internal: unrenderable reply"
}

// handle executes one line-protocol command and renders its legacy
// reply; req is the request span id the parse/exec spans attach under.
// Crash and fuzz harnesses drive the server through this entry point.
func (s *Server) handle(line string, req uint64) string {
	pr, rep := s.handleLine(line, req)
	return renderLegacy(pr, rep)
}

func (s *Server) handleLine(line string, req uint64) (request, Reply) {
	parse := telemetry.SpanBegin(telemetry.PhaseParse, 0, req)
	pr := s.parseLine(line)
	parse.End()
	exec := telemetry.SpanBegin(telemetry.PhaseExec, 0, req)
	defer exec.End()
	return pr, s.exec(pr, exec.ID)
}

// dispatch times and traces one line-protocol command around handle.
func (s *Server) dispatch(line string) string {
	reply, _ := s.dispatchLine(line)
	return reply
}

func (s *Server) dispatchLine(line string) (string, bool) {
	// The request span is a root (parent 0): when it outlasts the flight
	// recorder's threshold, the whole tree under it — parse, exec, txn and
	// its commit phases — is captured as one slow entry.
	req := telemetry.SpanBegin(telemetry.PhaseRequest, 0, 0)
	start := time.Now()
	pr, rep := s.handleLine(line, req.ID)
	lat := time.Since(start).Nanoseconds()
	req.End()
	telReqs.Inc()
	telReqLat.Observe(lat)
	if rep.kind == replyError {
		telErrs.Inc()
	}
	if telemetry.TraceEnabled() {
		telemetry.Emit(telemetry.EvRequest, 0, uint64(lat), uint64(len(line)))
	}
	return renderLegacy(pr, rep), rep.kind == replyBye
}

// dispatchArgs is dispatch for a RESP-framed argv: same spans, counters,
// and engine, different framing and rendering.
func (s *Server) dispatchArgs(args [][]byte) Reply {
	req := telemetry.SpanBegin(telemetry.PhaseRequest, 0, 0)
	start := time.Now()
	parse := telemetry.SpanBegin(telemetry.PhaseParse, 0, req.ID)
	pr := s.parseCommand(args)
	parse.End()
	exec := telemetry.SpanBegin(telemetry.PhaseExec, 0, req.ID)
	rep := s.exec(pr, exec.ID)
	exec.End()
	lat := time.Since(start).Nanoseconds()
	req.End()
	telReqs.Inc()
	telReqLat.Observe(lat)
	if rep.kind == replyError {
		telErrs.Inc()
	}
	if telemetry.TraceEnabled() {
		size := 0
		for _, a := range args {
			size += len(a)
		}
		telemetry.Emit(telemetry.EvRequest, 0, uint64(lat), uint64(size))
	}
	return rep
}

// classify tells the batch partitioner what to do with a parsed request:
// a single-key command (the registry's keyed flag) runs concurrently with
// others, hashed by its key; everything else is a barrier that runs alone
// on the session goroutine.
func classify(pr request) (key string, keyed bool) {
	d := pr.def
	if pr.bad != nil || d == nil || !d.keyed || len(pr.args) < 2 {
		return "", false
	}
	if !d.arityOK(len(pr.args)) {
		return "", false
	}
	if d.keyedMax > 0 && len(pr.args) > d.keyedMax {
		return "", false
	}
	return string(pr.args[1]), true
}

// batchItem is one pipelined command inside a batch, transport-erased:
// run executes a partitionable item, barrier executes on the session
// goroutine and reports whether the session should close (QUIT).
type batchItem struct {
	key     string
	keyed   bool
	run     func()
	barrier func() bool
}

// runBatch serves one batch of pipelined commands. In a batch of at least
// minPartitioned commands, keyed single-key commands spread across
// batchPartitions goroutines by key hash — same key, same partition, so
// per-key order is preserved. Barriers drain queued keyed work, then run
// alone on the session goroutine. Returns the index of the item that
// closed the session, or -1 when the whole batch was served.
func (s *Server) runBatch(items []batchItem) int {
	nparts := 1
	if len(items) >= minPartitioned {
		nparts = batchPartitions
	}

	pending := make([][]int, nparts)
	flush := func() {
		total := 0
		for _, idxs := range pending {
			total += len(idxs)
		}
		if total == 0 {
			return
		}
		if total <= 2 || nparts == 1 {
			// Not worth goroutine coordination.
			for _, idxs := range pending {
				for _, i := range idxs {
					items[i].run()
				}
			}
		} else {
			var wg sync.WaitGroup
			for p := 1; p < nparts; p++ {
				if len(pending[p]) == 0 {
					continue
				}
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for _, i := range pending[p] {
						items[i].run()
					}
				}(p)
			}
			for _, i := range pending[0] {
				items[i].run()
			}
			wg.Wait()
		}
		for p := range pending {
			pending[p] = pending[p][:0]
		}
	}
	for i := range items {
		if items[i].keyed && nparts > 1 {
			p := int(s.hash(items[i].key) % uint64(nparts))
			pending[p] = append(pending[p], i)
			continue
		}
		flush()
		if items[i].barrier() {
			// Commands pipelined after QUIT are dropped unanswered.
			return i
		}
	}
	flush()
	return -1
}

// dispatchBatch serves one batch of pipelined lines, returning replies
// in request order and whether the session should close.
func (s *Server) dispatchBatch(lines []string) ([]string, bool) {
	replies := make([]string, len(lines))
	if len(lines) == 1 {
		r, bye := s.dispatchLine(lines[0])
		replies[0] = r
		return replies, bye
	}
	items := make([]batchItem, len(lines))
	for i := range lines {
		i, line := i, lines[i]
		key, keyed := classify(s.parseLine(line))
		items[i] = batchItem{
			key:   key,
			keyed: keyed,
			run: func() {
				replies[i] = s.dispatch(line)
			},
			barrier: func() bool {
				r, bye := s.dispatchLine(line)
				replies[i] = r
				return bye
			},
		}
	}
	if stop := s.runBatch(items); stop >= 0 {
		return replies[:stop+1], true
	}
	return replies, false
}

// dispatchBatchRESP is dispatchBatch for RESP-framed commands.
func (s *Server) dispatchBatchRESP(cmds [][][]byte) ([]Reply, bool) {
	replies := make([]Reply, len(cmds))
	if len(cmds) == 1 {
		replies[0] = s.dispatchArgs(cmds[0])
		return replies, replies[0].kind == replyBye
	}
	items := make([]batchItem, len(cmds))
	for i := range cmds {
		i, args := i, cmds[i]
		key, keyed := classify(s.parseCommand(args))
		items[i] = batchItem{
			key:   key,
			keyed: keyed,
			run: func() {
				replies[i] = s.dispatchArgs(args)
			},
			barrier: func() bool {
				replies[i] = s.dispatchArgs(args)
				return replies[i].kind == replyBye
			},
		}
	}
	if stop := s.runBatch(items); stop >= 0 {
		return replies[:stop+1], true
	}
	return replies, false
}
