package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/mtm"
	"repro/internal/pds"
	"repro/internal/pmem"
	"repro/internal/resp"
	"repro/internal/scm"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// The traced pass is an outside-in ladder. The same prefix of connection
// 0's stream is replayed, one request at a time, at successively lower
// public entry points of the accounted stack: loopback TCP, ServeRESP on
// an in-memory pipe, shard.Store, the pds tree. Below that the layers have
// no per-request entry point, so synthetic kernels sized by the request's
// record run instead: a transaction storing the record's words, an
// allocate+free of the record's size, a log append of the words a redo
// record carries, and the region and device primitives. Every call is one
// span {rung, op kind, request id, start, end}; the parent of a span is
// the same request's span one rung up. A rung's self time is its inclusive
// time minus the inclusive time of the rung below it times that rung's
// calls per op. Emulated delays are accounted, not spun, so these are the
// software's own times; all spans are taken from the benchmark's side of
// each call, none inside the program.

// Rungs, top down; the index is the trace's thread id.
const (
	rungTCP = iota
	rungPipe
	rungRESP
	rungShard
	rungPDS
	rungMOD
	rungMTM
	rungPheap
	rungRawl
	rungRegion
	rungSCM
	numRungs
)

var rungNames = [numRungs]string{"net", "kvserve", "resp", "shard", "pds", "pds.mod", "mtm", "pheap", "rawl", "region", "scm"}

// primitiveBatch is how many region/scm primitive calls one span covers:
// a single call is shorter than reading the clock twice.
const primitiveBatch = 64

// servedBlock is how many requests a served rung replays before the next
// rung takes its turn (see served).
const servedBlock = 50

// modPutCap bounds the puts the MOD rung issues, preload included: the
// shadow-update map frees nothing until PM.ModSweep, so an unbounded
// stream exhausts the heap (see README, findings).
const modPutCap = 20000

type span struct {
	rung       uint8
	name       string
	req        int32
	start, end int64 // ns since the tracer's epoch
}

// tracer times calls and, when recording, keeps one span per call in
// memory until the run ends.
type tracer struct {
	epoch     time.Time
	recording bool
	spans     []span
}

// acc accumulates one series of calls: total time and count.
type acc struct {
	ns int64
	n  int64
}

func (a acc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.n)
}

func (a *acc) merge(o acc) { a.ns += o.ns; a.n += o.n }

// time runs fn as one span covering calls calls.
func (t *tracer) time(a *acc, rung int, name string, req, calls int, fn func()) {
	start := time.Now()
	fn()
	end := time.Now()
	a.ns += int64(end.Sub(start))
	a.n += int64(calls)
	if t.recording {
		t.spans = append(t.spans, span{uint8(rung), name, int32(req), int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))})
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev): one track per rung, requests
// aligned by id through args.req and args.parent.
func (t *tracer) writeChrome(path string, sharded bool) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(t.spans)+numRungs)
	for r, name := range rungNames {
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: r, Args: map[string]any{"name": name}})
	}
	for _, s := range t.spans {
		args := map[string]any{"req": s.req}
		if parent := rungParent[s.rung]; parent >= 0 {
			if parent == rungShard && !sharded {
				parent = rungPipe
			}
			args["parent"] = fmt.Sprintf("%s/%d", rungNames[parent], s.req)
		}
		events = append(events, event{
			Name: s.name, Cat: rungNames[s.rung], Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: int(s.rung), Args: args,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rungParent is the rung one step up the call path; an unsharded stack has
// no shard rung, so pds hangs off kvserve there.
var rungParent = [numRungs]int{
	rungTCP: -1, rungPipe: rungTCP, rungRESP: rungPipe, rungShard: rungPipe,
	rungPDS: rungShard, rungMOD: rungPipe, rungMTM: rungPDS, rungPheap: rungPDS,
	rungRawl: rungMTM, rungRegion: rungRawl, rungSCM: rungRegion,
}

// pipeListener serves in-memory net.Pipe connections: ServeRESP without
// the kernel's socket path.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	select {
	case <-l.done:
	default:
		close(l.done)
	}
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// ladderRun carries one traced pass.
type ladderRun struct {
	w    *workload
	b    *bench
	s    *session // connection 0: the replayed stream
	tr   *tracer
	ops  []op // the replayed prefix; each rung binds versions from the live model
	fail tally

	recBytes int // encoded record size of one string key
	recWords int
}

// ladder runs the traced pass on the accounted stack b and fills in the
// per-layer time metrics.
func ladder(w *workload, opts options, b *bench, met metrics) error {
	l := &ladderRun{w: w, b: b, s: b.sess[0], tr: &tracer{epoch: time.Now()}}
	l.recBytes = 2 + keyLen + 1 + w.valueSize // shard.EncodeRecord's layout
	l.recWords = (l.recBytes + 7) / 8
	// The stream's first ops again, drawn against a throwaway model: each
	// rung rebinds them to the live one.
	first := newGenerator(w, newModel(w, 0), opts.seed)
	l.ops = make([]op, w.ladderOps)
	for i := range l.ops {
		first.next(&l.ops[i])
	}

	// Top rungs: the prefix once over TCP to warm the path, then by turns
	// over loopback TCP unrecorded, over TCP recording spans, and through
	// ServeRESP on an in-memory pipe. Unrecorded TCP is the
	// end-to-end time the selves must sum into; recorded minus unrecorded is
	// the tracing overhead; TCP minus pipe is the kernel's socket path.
	if err := b.connect(); err != nil {
		return err
	}
	pl := newPipeListener()
	pipeServed := make(chan error, 1)
	go func() { pipeServed <- b.stack.srv.ServeRESP(pl) }()
	conn, err := pl.dial()
	if err != nil {
		return err
	}
	pipeClient := newClient(conn, l.s.enc)
	untraced := &servedVariant{rung: rungTCP, c: l.s.c}
	traced := &servedVariant{rung: rungTCP, c: l.s.c, record: true}
	piped := &servedVariant{rung: rungPipe, c: pipeClient, record: true}
	err = l.served(&servedVariant{rung: rungTCP, c: l.s.c})
	if err == nil {
		err = l.served(untraced, traced, piped)
	}
	pipeClient.close()
	pl.Close()
	<-pipeServed // the closed listener's error: the server itself stays up
	if err != nil {
		return err
	}

	parse, render := l.respRung()
	var sharded [numOpKinds]acc
	if b.stack.st != nil {
		if sharded, err = l.shardRung(); err != nil {
			return err
		}
	}
	tel0 := telemetry.Default.Snapshot()
	tree, err := l.pdsRung()
	if err != nil {
		return err
	}
	allocsInPDS := telemetry.Default.Snapshot()["pheap_allocs_total"] - tel0["pheap_allocs_total"]
	mod, err := l.modRung(opts)
	if err != nil {
		return err
	}
	k, err := l.kernels(b.stack.pms()[0])
	if err != nil {
		return err
	}
	if err := l.tr.writeChrome(opts.traceOut, b.stack.st != nil); err != nil {
		return err
	}
	l.s.t.add(l.fail)

	// --- metrics ---
	n := float64(len(l.ops))
	perOp := func(byKind [numOpKinds]acc) float64 {
		var sum acc
		for _, a := range byKind {
			sum.merge(a)
		}
		return float64(sum.ns) / n
	}
	class := func(byKind [numOpKinds]acc, kinds ...opKind) acc {
		var sum acc
		for _, k := range kinds {
			sum.merge(byKind[k])
		}
		return sum
	}

	// Self times are differences of two measured means and are reported as
	// measured. A negative one says the lower rung, replayed on its own, cost
	// more than it does inside the request (net on the sharded workload,
	// where a request is a millisecond of group-commit waiting and the pipe
	// and TCP passes differ by less than that wait's jitter).
	tNet, tPipe, tPDS := perOp(untraced.byKind), perOp(piped.byKind), perOp(tree)
	tResp := parse.mean() + render.mean()
	tStore := tPDS
	if b.stack.st != nil {
		tStore = perOp(sharded)
	}
	met.set("net.self_ns_per_op", tNet-tPipe, len(l.ops))
	met.set("resp.parse_ns_per_cmd", parse.mean(), int(parse.n))
	met.set("resp.render_ns_per_reply", render.mean(), int(render.n))
	met.set("kvserve.request_ns", tPipe, len(l.ops))
	kvSelf := tPipe - tResp - tStore
	met.set("kvserve.self_ns_per_op", kvSelf, len(l.ops))

	singleWrites := []opKind{opSet, opSetEx, opHSet}
	reads := []opKind{opGet, opHGet}
	shardSelf := 0.0
	if b.stack.st != nil {
		shardSelf = tStore - tPDS
	}
	met.set("shard.set_ns", class(sharded, singleWrites...).mean(), int(class(sharded, singleWrites...).n))
	met.set("shard.get_ns", class(sharded, reads...).mean(), int(class(sharded, reads...).n))
	met.set("shard.mset_ns", sharded[opMSet].mean(), int(sharded[opMSet].n))
	met.set("shard.self_ns_per_op", shardSelf, len(l.ops))

	puts, gets := class(tree, singleWrites...), class(tree, reads...)
	commits := puts.n + tree[opMSet].n
	allocFreePerCommit := 0.0
	if commits > 0 {
		allocFreePerCommit = allocsInPDS / float64(commits)
	}
	pdsSelfPut := puts.mean() - k.atomic.mean() - allocFreePerCommit*k.allocFree.mean()
	pdsSelfGet := gets.mean() - k.view.mean()
	met.set("pds.put_ns", puts.mean(), int(puts.n))
	met.set("pds.get_ns", gets.mean(), int(gets.n))
	met.set("pds.self_ns_per_put", pdsSelfPut, int(puts.n))

	met.set("pds.mod.put_ns", mod.put.mean(), int(mod.put.n))
	met.set("pds.mod.get_ns", mod.get.mean(), int(mod.get.n))
	modPuts := float64(max(mod.put.n, 1))
	met.set("pds.mod.fences_per_put", float64(mod.dev.Fences)/modPuts, int(mod.put.n))
	met.set("pds.mod.flushed_lines_per_put", float64(mod.dev.Flushes)/modPuts, int(mod.put.n))
	met.set("pds.mod.shadow_bytes_per_put", mod.shadowBytes/modPuts, int(mod.put.n))
	met.set("pds.mod.device_ns_per_put", float64(mod.dev.AccountedNs)/modPuts, int(mod.put.n))

	// A commit's children: the log append+flush and truncation, and the
	// device primitives of its write-back (whatever fences and flushes the
	// transaction kernel issued beyond the log kernel's).
	atomics := float64(k.atomic.n)
	fencesPerCommit := float64(k.atomicDev.Fences) / atomics
	writeBack := float64(k.atomicDev.Flushes)/atomics*k.scmFlush.mean() +
		max(fencesPerCommit-float64(k.rawlDev.Fences)/float64(k.append.n)-1, 0)*k.scmFence.mean()
	mtmSelf := k.atomic.mean() - k.append.mean() - k.truncate.mean() - writeBack
	met.set("mtm.atomic_ns", k.atomic.mean(), int(k.atomic.n))
	met.set("mtm.atomic_empty_ns", k.atomicEmpty.mean(), int(k.atomicEmpty.n))
	met.set("mtm.view_ns", k.view.mean(), int(k.view.n))
	met.set("mtm.self_ns_per_commit", mtmSelf, int(k.atomic.n))
	met.set("mtm.fences_per_commit", fencesPerCommit, int(k.atomic.n))

	met.set("pheap.alloc_free_ns", k.allocFree.mean(), int(k.allocFree.n))
	met.set("pheap.fences_per_alloc_free", float64(k.allocDev.Fences)/float64(k.allocFree.n), int(k.allocFree.n))
	met.set("pheap.device_ns_per_alloc_free", float64(k.allocDev.AccountedNs)/float64(k.allocFree.n), int(k.allocFree.n))
	met.set("rawl.append_flush_ns", k.append.mean(), int(k.append.n))
	met.set("rawl.truncate_ns", k.truncate.mean(), int(k.truncate.n))
	met.set("rawl.fences_per_append_flush", float64(k.rawlDev.Fences)/float64(k.append.n), int(k.append.n))
	met.set("region.load_ns", k.regionLoad.mean(), int(k.regionLoad.n))
	met.set("region.store_ns", k.regionStore.mean(), int(k.regionStore.n))
	met.set("region.wtstore_ns", k.regionWT.mean(), int(k.regionWT.n))
	met.set("scm.wtstore_ns", k.scmWT.mean(), int(k.scmWT.n))
	met.set("scm.flush_ns", k.scmFlush.mean(), int(k.scmFlush.n))
	met.set("scm.fence_ns", k.scmFence.mean(), int(k.scmFence.n))
	met.set("scm.device_ns_per_fence", float64(k.fenceDev.AccountedNs)/float64(k.fenceDev.Fences), int(k.fenceDev.Fences))

	// What the ladder can pin on a named layer's own code, per request of
	// the replayed prefix. The remainder is time beneath the transaction
	// system (allocator, log, region, device emulation), which kernels run
	// out of context cannot place inside a request.
	attributed := tNet - tPipe + tResp + kvSelf + shardSelf +
		(float64(puts.n+tree[opMSet].n)*(pdsSelfPut+mtmSelf)+float64(gets.n)*(pdsSelfGet+k.view.mean()))/n
	met.set("ladder.unattributed_share", 1-attributed/tNet, len(l.ops))
	met.set("trace.overhead_share", (perOp(traced.byKind)-tNet)/tNet, len(l.ops))

	// Attribution overhead: CPU per op over short accounted windows with the
	// program's phase attribution off and on by turns, so that the host's
	// drift falls on both; the median of the pairs' ratios.
	const pairs = 5
	var ratios []float64
	samples := 0
	for i := 0; i < pairs; i++ {
		off, err := b.accounted(opts.accountedOps / (2 * pairs))
		if err != nil {
			return err
		}
		telemetry.EnableAttribution()
		on, err := b.accounted(opts.accountedOps / (2 * pairs))
		telemetry.DisableAttribution()
		if err != nil {
			return err
		}
		ratios = append(ratios, on.cpuUsPerOp/off.cpuUsPerOp-1)
		samples += on.cpuSamples + off.cpuSamples
	}
	met.set("telemetry.attribution_overhead_share", median(ratios), samples)
	return nil
}

// servedVariant is one way of serving the replayed prefix: a client, and
// whether its spans are recorded.
type servedVariant struct {
	rung   int
	c      *client
	record bool
	byKind [numOpKinds]acc // time per op kind
}

// served replays the prefix one request per round trip, in blocks of
// servedBlock requests: every block goes through all the variants before the
// next begins, through a different one first each time, so the host's drift
// falls on all of them alike. Passes run one after another differed by more
// than the rungs do (net self time -7.8 us on one run, +1.2 us on the next);
// alternating request by request instead measures a connection that has just
// been idle, three times slower than one in use.
func (l *ladderRun) served(variants ...*servedVariant) error {
	var ops [1]op
	var rerr error
	for start, block := 0, 0; start < len(l.ops); start, block = start+servedBlock, block+1 {
		end := min(start+servedBlock, len(l.ops))
		for j := range variants {
			v := variants[(block+j)%len(variants)]
			l.tr.recording = v.record
			for i := start; i < end; i++ {
				ops[0] = l.ops[i]
				l.s.m.bind(&ops[0])
				kind := ops[0].kind
				l.tr.time(&v.byKind[kind], v.rung, opNames[kind], i, 1, func() {
					rerr = v.c.round(ops[:], &l.fail, nil)
				})
				if rerr != nil {
					return rerr
				}
			}
		}
	}
	l.tr.recording = true
	return nil
}

// args renders o as the argument vector the server's parser would see.
func (l *ladderRun) args(o *op) [][]byte {
	key := func(prefix byte, idx int32) []byte { return appendKey(nil, prefix, l.s.m.conn, idx) }
	val := func(hash bool, idx int32, field uint8, ver uint32) []byte {
		v := make([]byte, l.w.valueSize)
		fillValue(v, valueID(hash, l.s.m.conn, idx, field), ver)
		return v
	}
	switch o.kind {
	case opGet:
		return [][]byte{[]byte("GET"), key('k', o.idx[0])}
	case opSet:
		return [][]byte{[]byte("SET"), key('k', o.idx[0]), val(false, o.idx[0], 0, o.ver[0])}
	case opSetEx:
		return [][]byte{[]byte("SET"), key('k', o.idx[0]), val(false, o.idx[0], 0, o.ver[0]), []byte("EX"), []byte(farFutureEX)}
	case opHSet:
		return [][]byte{[]byte("HSET"), key('h', o.idx[0]), fieldNames[o.field], val(true, o.idx[0], o.field, o.ver[0])}
	case opHGet:
		return [][]byte{[]byte("HGET"), key('h', o.idx[0]), fieldNames[o.field]}
	}
	out := [][]byte{[]byte("MSET")}
	for i := 0; i < o.n; i++ {
		out = append(out, key('k', o.idx[i]), val(false, o.idx[i], 0, o.ver[i]))
	}
	return out
}

// respRung frames each request and its reply on byte buffers with the
// program's resp package: what the server's reader and writer cost with no
// socket and no command behind them.
func (l *ladderRun) respRung() (parse, render acc) {
	var in, out bytes.Buffer
	cw, cr, rw := resp.NewWriter(&in), resp.NewReader(&in), resp.NewWriter(&out)
	value := make([]byte, l.w.valueSize)
	for i := range l.ops {
		o := l.ops[i] // its stale versions only label bytes here
		cw.WriteCommand(l.args(&o)...)
		cw.Flush()
		name := opNames[o.kind]
		l.tr.time(&parse, rungRESP, name+" parse", i, 1, func() { cr.ReadCommand() })
		out.Reset()
		l.tr.time(&render, rungRESP, name+" render", i, 1, func() {
			switch {
			case o.kind.isRead():
				rw.WriteBulk(value)
			case o.kind == opHSet:
				rw.WriteInt(0)
			default:
				rw.WriteSimple("OK")
			}
			rw.Flush()
		})
	}
	return parse, render
}

// storeOp is a request reduced to what the storage layers see: a read of
// one string key, or a write of n records. Hash commands are replayed on
// the string key of the same index — beneath kvserve a hash is one more
// record in the same tree.
type storeOp struct {
	kind   opKind
	keys   []string
	values [][]byte // one per key for writes; nil for reads
	want   []byte   // reads: the value the store must return
}

func (l *ladderRun) storeOp(lo *op) storeOp {
	m, conn := l.s.m, l.s.m.conn
	so := storeOp{kind: lo.kind}
	n := lo.n
	if lo.kind != opMSet {
		n = 1
	}
	for i := 0; i < n; i++ {
		idx := lo.idx[i]
		so.keys = append(so.keys, string(appendKey(nil, 'k', conn, idx)))
		v := make([]byte, l.w.valueSize)
		if lo.kind.isRead() {
			fillValue(v, valueID(false, conn, idx, 0), m.str[idx])
			so.want = v
			continue
		}
		m.str[idx]++
		fillValue(v, valueID(false, conn, idx, 0), m.str[idx])
		so.values = append(so.values, v)
	}
	return so
}

func (l *ladderRun) checkRead(so *storeOp, got []byte, err error) error {
	if err != nil {
		return err
	}
	l.fail.attempted++
	if !bytes.Equal(got, so.want) {
		l.fail.fail(fmt.Sprintf("ladder read of %s: got %s, want %s", so.keys[0], describeValue(got), describeValue(so.want)))
	}
	return nil
}

// shardRung replays the prefix on shard.Store: routing, per-op leasing
// and, for MSET, the cross-shard intent protocol, without kvserve.
func (l *ladderRun) shardRung() ([numOpKinds]acc, error) {
	var byKind [numOpKinds]acc
	st := l.b.stack.st
	for i := range l.ops {
		so := l.storeOp(&l.ops[i])
		var err error
		var got string
		l.tr.time(&byKind[so.kind], rungShard, opNames[so.kind], i, 1, func() {
			switch {
			case so.kind.isRead():
				got, err = st.Get(so.keys[0])
			case so.kind == opMSet:
				recs := make([][]byte, len(so.keys))
				for j, key := range so.keys {
					if recs[j], err = shard.EncodeRecord(shard.Record{Key: key, Value: so.values[j]}); err != nil {
						return
					}
				}
				err = st.MSetRecs(so.keys, recs)
			default:
				err = st.Set(so.keys[0], string(so.values[0]))
			}
		})
		if so.kind.isRead() {
			err = l.checkRead(&so, []byte(got), err)
		}
		if err != nil {
			return byKind, fmt.Errorf("shard rung, op %d: %w", i, err)
		}
	}
	return byKind, nil
}

// pdsRung replays the prefix on the ordered map itself, the way kvserve's
// handlers use it: hash the key, encode the record, collision-check and
// Put inside Do, or Get inside View.
func (l *ladderRun) pdsRung() ([numOpKinds]acc, error) {
	var byKind [numOpKinds]acc
	pms := l.b.stack.pms()
	trees := make([]pds.OrderedMap, len(pms))
	for k, pm := range pms {
		root, _, err := pm.Static("kvserve.root", 8)
		if err != nil {
			return byKind, err
		}
		th, err := pm.NewThread()
		if err != nil {
			return byKind, err
		}
		defer th.Close()
		if trees[k], err = pds.NewOrderedMap(pds.BackendMTM, pds.Env{TM: pm.TM(), Thread: th}, root); err != nil {
			return byKind, err
		}
	}
	treeOf := func(key string) int { return int(shard.HashKey(key) % uint64(len(trees))) }
	for i := range l.ops {
		so := l.storeOp(&l.ops[i])
		// Records go to the tree their key routes to, one transaction per
		// tree touched: what a cross-shard MSET costs without the intent
		// protocol, which is the shard rung's business.
		byTree := make([][]int, len(trees))
		for j, key := range so.keys {
			byTree[treeOf(key)] = append(byTree[treeOf(key)], j)
		}
		var err error
		var got []byte
		l.tr.time(&byKind[so.kind], rungPDS, opNames[so.kind], i, 1, func() {
			if so.kind.isRead() {
				tree := trees[treeOf(so.keys[0])]
				err = tree.View(func(r mtm.Reader) error {
					raw, err := tree.Get(r, shard.HashKey(so.keys[0]))
					if err != nil {
						return err
					}
					rec, err := shard.DecodeRecord(raw)
					got = rec.Value
					return err
				})
				return
			}
			for t, idxs := range byTree {
				if len(idxs) == 0 || err != nil {
					continue
				}
				tree := trees[t]
				err = tree.Do(func(tx *mtm.Tx) error {
					for _, j := range idxs {
						rec, err := shard.EncodeRecord(shard.Record{Key: so.keys[j], Value: so.values[j]})
						if err != nil {
							return err
						}
						h := shard.HashKey(so.keys[j])
						if _, err := tree.Get(tx, h); err != nil && !errors.Is(err, pds.ErrNotFound) {
							return err
						}
						if err := tree.Put(tx, h, rec); err != nil {
							return err
						}
					}
					return nil
				})
			}
		})
		if so.kind.isRead() {
			err = l.checkRead(&so, got, err)
		}
		if err != nil {
			return byKind, fmt.Errorf("pds rung, op %d: %w", i, err)
		}
	}
	return byKind, nil
}

// modResult is the MOD rung: the same storage ops on the shadow-update
// backend, with the device work of its puts.
type modResult struct {
	put, get    acc
	dev         scm.StatsSnapshot
	shadowBytes float64
}

// modRung replays the prefix's storage ops on a fresh BackendMOD ordered
// map over its own small stack, preloaded through the map itself.
func (l *ladderRun) modRung(opts options) (modResult, error) {
	var res modResult
	dev, err := scm.Open(scm.Config{Size: 128 << 20, Mode: scm.DelayAccount})
	if err != nil {
		return res, err
	}
	pm, err := core.Attach(dev, core.Config{Dir: filepath.Join(opts.workdir, "mod"), DeviceSize: dev.Size()})
	if err != nil {
		return res, err
	}
	defer pm.Close()
	root, _, err := pm.Static("benchmark.mod", 8)
	if err != nil {
		return res, err
	}
	tree, err := pds.NewOrderedMap(pds.BackendMOD, pds.Env{RT: pm.Runtime(), Heap: pm.Heap()}, root)
	if err != nil {
		return res, err
	}
	keys := min(len(l.s.m.str), modPutCap/4)
	rec := make([]byte, l.recBytes)
	for i := 0; i < keys; i++ {
		if err := tree.Put(nil, uint64(i), rec); err != nil {
			return res, fmt.Errorf("mod preload: %w", err)
		}
	}
	dev0, tel0 := dev.Snapshot(), telemetry.Default.Snapshot()
	budget := modPutCap - keys
	for i := range l.ops {
		lo := &l.ops[i]
		h := uint64(int(lo.idx[0]) % keys)
		if lo.kind.isRead() {
			l.tr.time(&res.get, rungMOD, opNames[lo.kind], i, 1, func() {
				err = tree.View(func(r mtm.Reader) error {
					_, err := tree.Get(r, h)
					return err
				})
			})
		} else if budget > 0 {
			budget--
			l.tr.time(&res.put, rungMOD, opNames[lo.kind], i, 1, func() { err = tree.Put(nil, h, rec) })
		}
		if err != nil {
			return res, fmt.Errorf("mod rung, op %d: %w", i, err)
		}
	}
	dev1 := dev.Snapshot()
	res.dev = scm.StatsSnapshot{Fences: dev1.Fences - dev0.Fences, Flushes: dev1.Flushes - dev0.Flushes, AccountedNs: dev1.AccountedNs - dev0.AccountedNs}
	res.shadowBytes = telemetry.Default.Snapshot()["mod_shadow_bytes_total"] - tel0["mod_shadow_bytes_total"]
	return res, nil
}

// kernelResult holds the synthetic kernels beneath pds.
type kernelResult struct {
	atomic, atomicEmpty, view              acc
	allocFree                              acc
	append, truncate                       acc
	regionLoad, regionStore, regionWT      acc
	scmWT, scmFlush, scmFence              acc
	atomicDev, allocDev, rawlDev, fenceDev scm.StatsSnapshot
}

func devDelta(dev *scm.Device, fn func()) scm.StatsSnapshot {
	d0 := dev.Snapshot()
	fn()
	d1 := dev.Snapshot()
	return scm.StatsSnapshot{
		Stores: d1.Stores - d0.Stores, WTStores: d1.WTStores - d0.WTStores, Flushes: d1.Flushes - d0.Flushes,
		Fences: d1.Fences - d0.Fences, BytesWT: d1.BytesWT - d0.BytesWT, AccountedNs: d1.AccountedNs - d0.AccountedNs,
	}
}

// kernels runs, once per request of the prefix, the work a request of its
// record size causes beneath pds, at each lower layer's public entry
// point, on the accounted stack's first PM.
func (l *ladderRun) kernels(pm *core.PM) (kernelResult, error) {
	var k kernelResult
	var kerr error
	fail := func(err error) {
		if kerr == nil {
			kerr = err
		}
	}
	n, words := len(l.ops), int64(l.recWords)
	dev := pm.Device()

	// mtm: a transaction storing the record's words into a live block, an
	// empty one, and a View loading the same words.
	slot, _, err := pm.Static("benchmark.block", 8)
	if err != nil {
		return k, err
	}
	alloc := pm.Allocator()
	block, err := alloc.PMalloc(words*8, slot)
	if err != nil {
		return k, err
	}
	th, err := pm.NewThread()
	if err != nil {
		return k, err
	}
	k.atomicDev = devDelta(dev, func() {
		for i := 0; i < n; i++ {
			l.tr.time(&k.atomic, rungMTM, "atomic", i, 1, func() {
				fail(th.Atomic(func(tx *mtm.Tx) error {
					for j := int64(0); j < words; j++ {
						tx.StoreU64(block.Add(j*8), uint64(i)+uint64(j))
					}
					return nil
				}))
			})
		}
	})
	var sink uint64
	for i := 0; i < n; i++ {
		l.tr.time(&k.atomicEmpty, rungMTM, "atomic empty", i, 1, func() {
			fail(th.Atomic(func(*mtm.Tx) error { return nil }))
		})
		l.tr.time(&k.view, rungMTM, "view", i, 1, func() {
			fail(pm.View(func(r *mtm.ReadTx) error {
				for j := int64(0); j < words; j++ {
					sink += r.LoadU64(block.Add(j * 8))
				}
				return nil
			}))
		})
	}
	fail(th.Close())
	fail(alloc.PFree(slot))

	// pheap: allocate and free a block of the record's size.
	k.allocDev = devDelta(dev, func() {
		for i := 0; i < n; i++ {
			l.tr.time(&k.allocFree, rungPheap, "pmalloc+pfree", i, 1, func() {
				if _, err := alloc.PMalloc(int64(l.recBytes), slot); err != nil {
					fail(err)
					return
				}
				fail(alloc.PFree(slot))
			})
		}
	})

	// rawl: append and flush what a redo record of the transaction above
	// carries (an address and a value per word), then truncate.
	log, err := pm.CreateLog("benchmark.log", 1<<16)
	if err != nil {
		return k, err
	}
	rec := make([]uint64, 2*words+2)
	for i := 0; i < n; i++ {
		// The truncation is timed on its own and its fences are not the
		// append's, so the device delta is taken around the append alone.
		d := devDelta(dev, func() {
			l.tr.time(&k.append, rungRawl, "append+flush", i, 1, func() {
				_, err := log.Append(rec)
				fail(err)
				log.Flush()
			})
		})
		k.rawlDev.Fences += d.Fences
		l.tr.time(&k.truncate, rungRawl, "truncate", i, 1, log.TruncateAll)
	}
	if kerr != nil {
		return k, kerr
	}

	// region: word primitives through the address-translating memory view.
	mem := pm.Memory()
	scratch, err := alloc.PMalloc(primitiveBatch*scm.LineSize, slot)
	if err != nil {
		return k, err
	}
	line := func(j int) pmem.Addr { return scratch.Add(int64(j) * scm.LineSize) }
	for i := 0; i < n/primitiveBatch+1; i++ {
		l.tr.time(&k.regionLoad, rungRegion, "load", i, primitiveBatch, func() {
			for j := 0; j < primitiveBatch; j++ {
				sink += mem.LoadU64(line(j))
			}
		})
		l.tr.time(&k.regionStore, rungRegion, "store", i, primitiveBatch, func() {
			for j := 0; j < primitiveBatch; j++ {
				mem.StoreU64(line(j), uint64(i))
			}
		})
		mem.FlushRange(scratch, primitiveBatch*scm.LineSize)
		l.tr.time(&k.regionWT, rungRegion, "wtstore", i, primitiveBatch, func() {
			for j := 0; j < primitiveBatch; j++ {
				mem.WTStoreU64(line(j), uint64(i))
			}
		})
		mem.Fence()
	}
	if err := alloc.PFree(slot); err != nil {
		return k, err
	}

	// scm: the device primitives on a private device, no software above.
	raw, err := scm.Open(scm.Config{Size: 1 << 20, Mode: scm.DelayAccount})
	if err != nil {
		return k, err
	}
	ctx := raw.NewContext()
	for i := 0; i < n/primitiveBatch+1; i++ {
		l.tr.time(&k.scmWT, rungSCM, "wtstore", i, primitiveBatch, func() {
			for j := 0; j < primitiveBatch; j++ {
				ctx.WTStoreU64(int64(j)*scm.LineSize, uint64(i))
			}
		})
		ctx.Fence()
		for j := 0; j < primitiveBatch; j++ {
			ctx.StoreU64(int64(j)*scm.LineSize, uint64(i))
		}
		l.tr.time(&k.scmFlush, rungSCM, "flush", i, primitiveBatch, func() {
			for j := 0; j < primitiveBatch; j++ {
				ctx.Flush(int64(j) * scm.LineSize)
			}
		})
		k.fenceDev = devDelta(raw, func() {
			l.tr.time(&k.scmFence, rungSCM, "fence", i, primitiveBatch, func() {
				for j := 0; j < primitiveBatch; j++ {
					ctx.WTStoreU64(0, uint64(j))
					ctx.Fence()
				}
			})
		})
	}
	// The fence series stored one word before each fence; take that out.
	k.scmFence.ns = max(k.scmFence.ns-int64(k.scmWT.mean()*float64(k.scmFence.n)), 0)
	_ = sink
	return k, raw.Close()
}
