// Package kvserve is a network key-value server over Mnemosyne's durable
// transactions — the kind of small service the paper's introduction
// motivates (low-latency storage of moderate amounts of data, logs,
// configuration) built directly on persistent memory with no database
// underneath.
//
// The server is a command engine behind the RESP2 wire protocol
// (ServeRESP), so stock redis clients speak to it directly: a registry
// maps verbs to handlers (with arity contracts and the pipeline
// partitioner's keyed/barrier classification). Values are typed records:
// plain strings (SET/GET/DEL, MSET/MGET/MDEL), hashes
// (HSET/HGET/HDEL/HLEN/HGETALL), and either may carry a crash-safe
// expiry deadline (SET ... EX, EXPIRE/TTL/PERSIST) registered on a
// persistent timer wheel and committed in the same durable transaction
// as the value. COUNT, STATS, PING, ECHO and QUIT round out the surface.
//
// Every acknowledged write is durable before the reply is written: the
// B+ tree update commits in a durable memory transaction, on a thread the
// transaction system supplies for that one transaction — a connection
// owns none, so any number of connections share the Threads slots. Reads
// are served on slot-free snapshot read transactions: no thread, no log
// record, no fence, so unbounded readers run in parallel with writers.
//
// Clients that pipeline (send several requests without waiting for
// replies) are served transparently in batches: buffered commands are
// dispatched concurrently across a small set of partitions — keyed by
// hash, so commands on the same key keep their order — and the replies
// are written back in request order. The session goroutine runs one
// partition itself; the others run on worker goroutines the session
// starts at its first partitioned batch and stops when it ends. With
// group commit enabled the whole batch shares durability fences.
package kvserve

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pds"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

var (
	telReqLat = telemetry.NewHistogram("kvserve_request_latency_ns", "Latency of kvserve protocol commands, in nanoseconds.")
	telReqs   = telemetry.NewCounter("kvserve_requests_total", "Protocol commands dispatched by kvserve.")
	telErrs   = telemetry.NewCounter("kvserve_errors_total", "Protocol commands answered with an error reply.")
)

// Server serves the command engine over RESP2 on one or more listeners
// (ServeRESP).
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
// wire protocol, with single-key commands routed to their key's
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

// ServeRESP accepts RESP2 connections until Close; the first listener
// also starts the TTL sweeper goroutine. A connection holds no
// transaction thread: the Threads bound caps transactions in flight, and
// a burst of writes beyond it queues for slots (up to the lease timeout)
// instead of erroring.
func (s *Server) ServeRESP(l net.Listener) error {
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
			s.respSession(conn)
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
// and how many partitions (the session goroutine's own included) a batch
// of at least minPartitioned commands spreads across.
const (
	maxBatch        = 128
	batchPartitions = 4
	minPartitioned  = 8
)
