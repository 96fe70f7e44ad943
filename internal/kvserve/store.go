package kvserve

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mtm"
	"repro/internal/pds"
	"repro/internal/pmem"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// node is one keyspace shard's persistent handles: the PM instance it
// lives in, its key-value map behind the backend-agnostic pds interface
// (a transactional B+ tree, or a MOD shadow-update treap), and the root
// cell of its TTL timer wheel. An unsharded server is a store of exactly
// one node.
type node struct {
	pm      *core.PM
	tree    pds.OrderedMap
	ttlRoot pmem.Addr   // 8-byte static cell -> timer wheel block (0 until first TTL)
	ttlLive atomic.Bool // volatile: the wheel exists, sweeping may find work
}

// store is the engine's storage surface: command handlers run against
// it and never ask whether the server is sharded. Both transports (line
// protocol and RESP) dispatch into the same registry, and the registry's
// handlers see only this interface — the old per-command
// handle/handleSharded fork is gone.
type store interface {
	// NShards and ShardOf route keys; an unsharded store answers 1 / 0.
	NShards() int
	ShardOf(key string) int
	// Node exposes shard k's persistent handles (for sweeping and scans).
	Node(k int) *node
	// NeedsThread reports whether Update requires a caller-supplied
	// transaction thread. The unsharded store runs on the session's leased
	// thread; the sharded store leases inside each destination shard; the
	// MOD store's mutations self-commit and never touch a thread.
	NeedsThread() bool
	// SupportsTTL reports whether the backend can register expiry
	// deadlines: the timer wheel commits in the same mtm transaction as
	// the record, which the self-committing MOD backend has none of, so
	// TTL-carrying commands are refused there.
	SupportsTTL() bool
	// Update runs fn as one durable transaction on shard k, attributed
	// under the parent span when the backend supports attribution.
	Update(th *mtm.Thread, parent uint64, k int, fn func(n *node, tx *mtm.Tx) error) error
	// View runs fn on a slot-free snapshot of shard k.
	View(parent uint64, k int, fn func(n *node, r mtm.Reader) error) error
	// MPut stores every keys[i]=recs[i] atomically: one transaction
	// unsharded or single-shard, the cross-shard intent protocol otherwise.
	MPut(th *mtm.Thread, parent uint64, keys []string, recs [][]byte) error
	// StatsLine renders the STATS reply body.
	StatsLine() string
}

// localStore is the unsharded backend: one PM, one tree, transactions on
// the session's leased thread so commit phases attribute under the
// request span.
type localStore struct {
	srv *Server
	n   node
}

func (ls *localStore) NShards() int       { return 1 }
func (ls *localStore) ShardOf(string) int { return 0 }
func (ls *localStore) Node(int) *node     { return &ls.n }
func (ls *localStore) NeedsThread() bool  { return true }
func (ls *localStore) SupportsTTL() bool  { return true }

func (ls *localStore) Update(th *mtm.Thread, parent uint64, _ int, fn func(n *node, tx *mtm.Tx) error) error {
	return atomicSpanned(th, parent, func(tx *mtm.Tx) error { return fn(&ls.n, tx) })
}

func (ls *localStore) View(parent uint64, _ int, fn func(n *node, r mtm.Reader) error) error {
	return ls.srv.pm.ViewSpanned(parent, func(r *mtm.ReadTx) error { return fn(&ls.n, r) })
}

func (ls *localStore) MPut(th *mtm.Thread, parent uint64, keys []string, recs [][]byte) error {
	return atomicSpanned(th, parent, func(tx *mtm.Tx) error {
		for i := range keys {
			if err := ls.srv.putRecord(&ls.n, tx, keys[i], recs[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// StatsLine renders one line of key=value pairs from the live stack: the
// transaction system's commit/abort counts, the SCM device's primitive
// counts, log-append totals from the telemetry registry, and the request
// latency distribution served so far.
func (ls *localStore) StatsLine() string {
	s := ls.srv
	tm := s.pm.TM().Snapshot()
	dev := s.pm.Device().Snapshot()
	reg := telemetry.Default.Snapshot()
	var b strings.Builder
	b.WriteString("STATS")
	add := func(k string, v uint64) { fmt.Fprintf(&b, " %s=%d", k, v) }
	add("commits", tm.Commits)
	add("aborts", tm.Aborts)
	add("readonly", tm.ReadOnly)
	add("stores", dev.Stores)
	add("wtstores", dev.WTStores)
	add("flushes", dev.Flushes)
	add("fences", dev.Fences)
	add("log_appends", uint64(reg["rawl_appends_total"]))
	add("log_bytes", uint64(reg["rawl_append_payload_bytes_total"]))
	add("fresh_bytes", uint64(reg["mtm_fresh_bytes_total"]))
	add("gc_epochs", uint64(reg["mtm_group_commit_epochs_total"]))
	add("gc_members", uint64(reg["mtm_group_commit_members_total"]))
	add("views", tm.Views)
	add("readtx_started", uint64(reg["mtm_readtx_started_total"]))
	add("readtx_retries", uint64(reg["mtm_readtx_retries_total"]))
	add("readtx_extends", uint64(reg["mtm_readtx_extends_total"]))
	add("thread_leases", uint64(reg["mtm_thread_leases_total"]))
	add("latency_sample_rate", uint64(s.pm.TM().LatencySampleRate()))
	add("slow_captures", uint64(reg["telemetry_slow_captures_total"]))
	fpc := 0.0
	if tm.Commits > 0 {
		fpc = float64(dev.Fences) / float64(tm.Commits)
	}
	fmt.Fprintf(&b, " fences_per_commit=%.2f", fpc)
	add("expired", uint64(telExpired.Value()))
	add("requests", telReqLat.Count())
	fmt.Fprintf(&b, " req_p50_us=%.1f req_p99_us=%.1f",
		telReqLat.Quantile(0.50)/1e3, telReqLat.Quantile(0.99)/1e3)
	return b.String()
}

// shardStore is the sharded backend: every shard has its own PM, writes
// lease transaction threads inside the destination shard, and cross-shard
// MPut runs the persistent intent protocol (internal/shard).
type shardStore struct {
	srv   *Server
	st    *shard.Store
	nodes []node
}

func (ss *shardStore) NShards() int           { return ss.st.NShards() }
func (ss *shardStore) ShardOf(key string) int { return ss.st.ShardOf(key) }
func (ss *shardStore) Node(k int) *node       { return &ss.nodes[k] }
func (ss *shardStore) NeedsThread() bool      { return false }
func (ss *shardStore) SupportsTTL() bool      { return true }

func (ss *shardStore) Update(_ *mtm.Thread, _ uint64, k int, fn func(n *node, tx *mtm.Tx) error) error {
	n := &ss.nodes[k]
	return n.pm.Atomic(func(tx *mtm.Tx) error { return fn(n, tx) })
}

func (ss *shardStore) View(_ uint64, k int, fn func(n *node, r mtm.Reader) error) error {
	n := &ss.nodes[k]
	return n.pm.View(func(r *mtm.ReadTx) error { return fn(n, r) })
}

func (ss *shardStore) MPut(_ *mtm.Thread, _ uint64, keys []string, recs [][]byte) error {
	return ss.st.MSetRecs(keys, recs)
}

// StatsLine renders the STATS body for a sharded store: the classic
// aggregate fields summed across shards, the shard count, then per-shard
// commit/fence/recovery dimensions.
func (ss *shardStore) StatsLine() string {
	agg := ss.st.Stats()
	var b strings.Builder
	b.WriteString("STATS")
	add := func(k string, v uint64) { fmt.Fprintf(&b, " %s=%d", k, v) }
	add("shards", uint64(ss.st.NShards()))
	add("commits", agg.Commits)
	add("aborts", agg.Aborts)
	add("stores", agg.Stores)
	add("flushes", agg.Flushes)
	add("fences", agg.Fences)
	add("views", agg.Views)
	fpc := 0.0
	if agg.Commits > 0 {
		fpc = float64(agg.Fences) / float64(agg.Commits)
	}
	fmt.Fprintf(&b, " fences_per_commit=%.2f", fpc)
	rc, ra := ss.st.RecoveredIntents()
	add("recovered_xmset_commits", uint64(rc))
	add("recovered_xmset_aborts", uint64(ra))
	for k := 0; k < ss.st.NShards(); k++ {
		sh := ss.st.Shard(k)
		tm := sh.PM.TM().Snapshot()
		dev := sh.PM.Device().Snapshot()
		add(fmt.Sprintf("shard%d_commits", k), tm.Commits)
		sfpc := 0.0
		if tm.Commits > 0 {
			sfpc = float64(dev.Fences) / float64(tm.Commits)
		}
		fmt.Fprintf(&b, " shard%d_fences_per_commit=%.2f", k, sfpc)
		fmt.Fprintf(&b, " shard%d_recovery_us=%d", k, sh.RecoveryTime.Microseconds())
	}
	add("expired", uint64(telExpired.Value()))
	add("requests", telReqLat.Count())
	fmt.Fprintf(&b, " req_p50_us=%.1f req_p99_us=%.1f",
		telReqLat.Quantile(0.50)/1e3, telReqLat.Quantile(0.99)/1e3)
	return b.String()
}

// initTTLNode wires a node's timer-wheel root cell and marks the node
// TTL-live when a previous incarnation already allocated a wheel, so
// recovery resumes sweeping deadlines that survived the crash.
func initTTLNode(n *node) error {
	addr, _, err := n.pm.Static("kvserve.ttl", 8)
	if err != nil {
		return err
	}
	n.ttlRoot = addr
	return n.pm.View(func(r *mtm.ReadTx) error {
		if r.LoadU64(n.ttlRoot) != 0 {
			n.ttlLive.Store(true)
		}
		return nil
	})
}
