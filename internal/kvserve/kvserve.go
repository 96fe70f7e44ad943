// Package kvserve is a network key-value server over Mnemosyne's durable
// transactions — the kind of small service the paper's introduction
// motivates (low-latency storage of moderate amounts of data, logs,
// configuration) built directly on persistent memory with no database
// underneath.
//
// The server is a transport-agnostic command engine: a registry maps
// verbs to handlers (with arity contracts and the pipeline partitioner's
// keyed/barrier classification), and two wire front ends dispatch into
// it — the original line protocol, and RESP2 (ServeRESP) for stock redis
// clients. Values are typed records: plain strings, hashes
// (HSET/HGET/HDEL/HLEN/HGETALL), and either may carry a crash-safe
// expiry deadline (SET ... EX, EXPIRE/TTL/PERSIST) registered on a
// persistent timer wheel and committed in the same durable transaction
// as the value.
//
// The line protocol is unchanged:
//
//	SET <key> <value>         -> OK
//	GET <key>                 -> VALUE <value> | MISSING
//	MGET <key> [<key> ...]    -> VALUE <v> | MISSING per key (one snapshot)
//	DEL <key>                 -> OK | MISSING
//	MSET <k> <v> [<k> <v>...] -> OK (one transaction; values without spaces —
//	                             the odd-argument error says so; RESP bulk
//	                             strings carry arbitrary bytes)
//	MDEL <key> [<key> ...]    -> DELETED <n> (one transaction)
//	COUNT                     -> COUNT <n>
//	STATS                     -> STATS key=value ... (telemetry snapshot)
//	PING                      -> PONG
//	QUIT                      -> BYE (closes the connection)
//
// Every acknowledged write is durable before the reply is written: the
// B+ tree update commits in a durable memory transaction, on a thread the
// transaction system supplies for that one transaction — a connection
// owns none, so any number of connections share the Threads slots. Reads
// are served on slot-free snapshot read transactions: no thread, no log
// record, no fence, so unbounded readers run in parallel with writers.
//
// Clients that pipeline (send several requests without waiting for
// replies) are served transparently in batches on either transport:
// buffered commands are dispatched concurrently across a small set of
// partitions — keyed by hash, so commands on the same key keep their
// order — and the replies are written back in request order. With group
// commit enabled the whole batch shares durability fences.
package kvserve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pds"
	"repro/internal/resp"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

var (
	telReqLat = telemetry.NewHistogram("kvserve_request_latency_ns", "Latency of kvserve protocol commands, in nanoseconds.")
	telReqs   = telemetry.NewCounter("kvserve_requests_total", "Protocol commands dispatched by kvserve.")
	telErrs   = telemetry.NewCounter("kvserve_errors_total", "Protocol commands answered with ERROR.")
)

// Server serves the command engine over one or more listeners (line
// protocol via Serve, RESP2 via ServeRESP).
type Server struct {
	hash func([]byte) uint64 // shard.HashKeyBytes, overridable by collision tests

	// store is the engine's storage: one node unsharded, N nodes over
	// independent PM instances sharded. Handlers never fork on the
	// distinction.
	store *mtmStore

	// now is the expiry clock (UNIX nanoseconds); TTL crash tests replace
	// it with a scripted clock for deterministic deadline exploration.
	now func() int64

	// reapCh carries lazy-reap hints (reads that saw an expired record)
	// to the sweeper goroutine.
	reapCh    chan reapItem
	sweepOnce sync.Once

	// ctx is the server's lifecycle context: Close cancels it to stop the
	// sweeper.
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]bool
	closed    bool
	wg        sync.WaitGroup
}

// newServer builds a server over pms, one store node each: the tree under
// the PM's "kvserve.root" static, TTL deadlines under "kvserve.ttl".
func newServer(pms []*core.PM, xs *shard.Store) (*Server, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		hash:   shard.HashKeyBytes,
		now:    func() int64 { return time.Now().UnixNano() },
		reapCh: make(chan reapItem, 1024),
		ctx:    ctx,
		cancel: cancel,
		conns:  make(map[net.Conn]bool),
	}
	s.store = &mtmStore{srv: s, nodes: make([]node, len(pms)), xs: xs}
	for k, pm := range pms {
		root, _, err := pm.Static("kvserve.root", 8)
		if err != nil {
			cancel()
			return nil, err
		}
		n := &s.store.nodes[k]
		n.pm, n.tree = pm, pds.NewBPTree(root)
		if err := initTTLNode(n); err != nil {
			cancel()
			return nil, err
		}
	}
	return s, nil
}

// New builds a server over an open persistent-memory instance; state
// lives under the "kvserve.root" static (and TTL deadlines under
// "kvserve.ttl"), so a restarted server finds its data again.
func New(pm *core.PM) (*Server, error) {
	return newServer([]*core.PM{pm}, nil)
}

// NewSharded builds a server over a sharded store: the same engine and
// both wire protocols, with single-key commands routed to their key's
// shard and MGET/MSET/MDEL scatter-gathered — cross-shard MSET
// atomically (see internal/shard). Each shard keeps its state under its
// own "kvserve.root" static, so a one-shard store serves a classic
// kvserve image unchanged.
func NewSharded(st *shard.Store) (*Server, error) {
	pms := make([]*core.PM, st.NShards())
	for k := range pms {
		pms[k] = st.Shard(k).PM
	}
	return newServer(pms, st)
}

// Record and protocol size limits, aliases of the shared record codec's
// (internal/shard): the key length must fit the record header's two
// bytes; handlers reject oversized keys and values before encoding runs,
// so encoding can never corrupt a header.
const (
	// MaxKeyLen bounds keys (bytes).
	MaxKeyLen = shard.MaxKeyLen
	// MaxValueLen bounds values (bytes; a hash's whole encoded field set).
	MaxValueLen = shard.MaxValueLen
)

// Protocol size-limit sentinels, matchable with errors.Is; the root
// mnemosyne package re-exports them.
var (
	ErrKeyTooLong   = errors.New("kvserve: key too long")
	ErrValueTooLong = errors.New("kvserve: value too long")
)

// Serve accepts line-protocol connections until Close. A connection holds
// no transaction thread: the Threads bound caps transactions in flight,
// and a burst of writes beyond it queues for slots (up to the lease
// timeout) instead of erroring.
func (s *Server) Serve(l net.Listener) error {
	return s.serveLoop(l, s.session)
}

// serveLoop is the accept loop both transports share. The first listener
// also starts the TTL sweeper goroutine.
func (s *Server) serveLoop(l net.Listener, serve func(net.Conn)) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return nil
	}
	s.listeners = append(s.listeners, l)
	s.sweepOnce.Do(func() {
		s.wg.Add(1)
		go s.sweeper()
	})
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			serve(conn)
		}()
	}
}

// Close stops accepting, disconnects active sessions, and waits for them
// to finish their in-flight command (every acknowledged update is durable
// before its reply, so a shutdown never loses acknowledged data).
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	listeners := s.listeners
	s.listeners = nil
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.cancel()
	var err error
	for _, l := range listeners {
		if cerr := l.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.wg.Wait()
	return err
}

// Batch-dispatch tuning: how many pipelined commands one round serves,
// and how many goroutines (the session's own included) a batch of at least
// minPartitioned commands spreads across.
const (
	maxBatch        = 128
	batchPartitions = 4
	minPartitioned  = 8
)

// errLineTooLong marks a request line over the 64 KB cap — a client
// protocol error, not a silent disconnect.
var errLineTooLong = errors.New("kvserve: line too long")

func (s *Server) session(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriter(conn)
	defer w.Flush()
	// Handlers render RESP; the sink here is a scratch buffer whose
	// replies are translated to the line vocabulary on their way out.
	ss := s.newSession(new(resp.Writer))
	for {
		// One blocking read, then drain whatever a pipelining client
		// already has buffered: a request-per-reply client always sees a
		// batch of one.
		line, err := readLine(r)
		if err == errLineTooLong {
			s.lineTooLong(conn, w)
			return
		}
		if err != nil {
			return
		}
		ss.cmds = append(ss.cmds[:0], s.parseLine(line))
		for len(ss.cmds) < maxBatch && bufferedLine(r) {
			more, err := readLine(r)
			if err != nil {
				break
			}
			ss.cmds = append(ss.cmds, s.parseLine(more))
		}
		quit := ss.serve()
		replies := ss.out.w.Bytes()
		for i := 0; len(replies) > 0; i++ {
			text, n := legacyText(&ss.cmds[i], replies)
			fmt.Fprintln(w, text)
			replies = replies[n:]
		}
		ss.out.w.Truncate(0)
		w.Flush()
		if quit {
			return
		}
	}
}

// readLine reads one protocol line: up to the reader's buffer size,
// newline-terminated, with a final unterminated line at EOF still
// delivered (Scanner semantics, kept across the pipelining rewrite).
func readLine(r *bufio.Reader) (string, error) {
	s, err := r.ReadSlice('\n')
	switch {
	case err == bufio.ErrBufferFull:
		return "", errLineTooLong
	case err != nil && len(s) == 0:
		return "", err
	}
	line := strings.TrimSuffix(string(s), "\n")
	return strings.TrimSuffix(line, "\r"), nil
}

// bufferedLine reports whether a complete line is already buffered, so
// reading it cannot block.
func bufferedLine(r *bufio.Reader) bool {
	if r.Buffered() == 0 {
		return false
	}
	b, _ := r.Peek(r.Buffered())
	return bytes.IndexByte(b, '\n') >= 0
}

// lineTooLong answers an oversized request line and ends the session;
// the reader cannot resynchronize mid-line.
func (s *Server) lineTooLong(conn net.Conn, w *bufio.Writer) {
	telErrs.Inc()
	fmt.Fprintln(w, "ERROR line too long")
	w.Flush()
	// Drain the rest of the oversized line: closing with unread bytes
	// queued sends an RST that can destroy the error reply before the
	// client reads it.
	conn.SetReadDeadline(time.Now().Add(time.Second))
	io.Copy(io.Discard, conn)
}
