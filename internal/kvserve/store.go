package kvserve

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mtm"
	"repro/internal/pds"
	"repro/internal/pmem"
	"repro/internal/scm"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// node is one keyspace shard's persistent handles: the PM instance it
// lives in, its key-value B+ tree, and the root cell of its TTL timer
// wheel. An unsharded server is a store of exactly one node.
type node struct {
	pm      *core.PM
	tree    *pds.BPTree
	ttlRoot pmem.Addr   // 8-byte static cell -> timer wheel block (0 until first TTL)
	ttlLive atomic.Bool // volatile: the wheel exists, sweeping may find work
}

// mtmStore is the engine's storage surface: command handlers run against
// it and never ask whether the server is sharded. It holds one
// node per shard, each over its own PM. Every write is one
// PM.AtomicSpanned on its node — the thread it runs on is the transaction
// system's business (mtm.TM.AtomicSpanned), not the connection's — and
// every read one ViewSpanned, so commit and view phases attribute under
// the request span at any shard count.
type mtmStore struct {
	srv   *Server
	nodes []node
	// xs runs MPut's cross-shard intent protocol (internal/shard) and
	// routes keys; nil on the one-node store New builds over a bare PM.
	xs *shard.Store
}

// NShards is the shard count, 1 unsharded. The engine routes a key by the
// hash it has already computed (Server.shard); ShardOf routes one it has
// not, given as a string.
func (ms *mtmStore) NShards() int { return len(ms.nodes) }

func (ms *mtmStore) ShardOf(key string) int {
	return ms.srv.shard(ms.srv.hash([]byte(key)))
}

// Node exposes shard k's persistent handles (for sweeping and scans).
func (ms *mtmStore) Node(k int) *node { return &ms.nodes[k] }

// Update runs fn as one durable transaction on shard k, attributed under
// the parent span.
func (ms *mtmStore) Update(parent uint64, k int, fn func(n *node, tx *mtm.Tx) error) error {
	n := &ms.nodes[k]
	return n.pm.AtomicSpanned(parent, func(tx *mtm.Tx) error { return fn(n, tx) })
}

// View runs fn on a slot-free snapshot of shard k.
func (ms *mtmStore) View(parent uint64, k int, fn func(n *node, r mtm.Reader) error) error {
	n := &ms.nodes[k]
	return n.pm.ViewSpanned(parent, func(r *mtm.ReadTx) error { return fn(n, r) })
}

// MPut stores every encoded record under its own key atomically: one
// transaction when the keys share a shard, the cross-shard intent
// protocol otherwise.
func (ms *mtmStore) MPut(parent uint64, recs [][]byte) error {
	s := ms.srv
	slot := func(rec []byte) uint64 { return s.hash(shard.RecordKey(rec)) }
	k := s.shard(slot(recs[0]))
	for _, rec := range recs[1:] {
		if s.shard(slot(rec)) != k {
			return ms.xs.MPut(recs)
		}
	}
	return ms.Update(parent, k, func(n *node, tx *mtm.Tx) error {
		for _, rec := range recs {
			if err := putRecord(n, tx, slot(rec), rec, nil); err != nil {
				return err
			}
		}
		return nil
	})
}

// StatsLine renders one line of key=value pairs from the live stack: the
// shard count, transaction and device counts summed over the shards,
// log and read-transaction totals from the telemetry registry, the
// request latency distribution served so far and, on a sharded store,
// per-shard commit/fence/recovery dimensions.
func (ms *mtmStore) StatsLine() string {
	var tm mtm.StatsSnapshot
	var dev scm.StatsSnapshot
	perNode := make([]struct{ commits, fences uint64 }, len(ms.nodes))
	for k := range ms.nodes {
		t := ms.nodes[k].pm.TM().Snapshot()
		tm.Commits += t.Commits
		tm.Aborts += t.Aborts
		tm.ReadOnly += t.ReadOnly
		tm.Views += t.Views
		d := ms.nodes[k].pm.Device().Snapshot()
		dev.Stores += d.Stores
		dev.WTStores += d.WTStores
		dev.Flushes += d.Flushes
		dev.Fences += d.Fences
		perNode[k].commits, perNode[k].fences = t.Commits, d.Fences
	}
	reg := telemetry.Default.Snapshot()
	var b strings.Builder
	b.WriteString("STATS")
	add := func(k string, v uint64) { fmt.Fprintf(&b, " %s=%d", k, v) }
	perCommit := func(k string, fences, commits uint64) {
		fpc := 0.0
		if commits > 0 {
			fpc = float64(fences) / float64(commits)
		}
		fmt.Fprintf(&b, " %s=%.2f", k, fpc)
	}
	add("shards", uint64(len(ms.nodes)))
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
	add("latency_sample_rate", uint64(ms.nodes[0].pm.TM().LatencySampleRate()))
	add("slow_captures", uint64(reg["telemetry_slow_captures_total"]))
	perCommit("fences_per_commit", dev.Fences, tm.Commits)
	if len(ms.nodes) > 1 {
		rc, ra := ms.xs.RecoveredIntents()
		add("recovered_xmset_commits", uint64(rc))
		add("recovered_xmset_aborts", uint64(ra))
		for k, n := range perNode {
			add(fmt.Sprintf("shard%d_commits", k), n.commits)
			perCommit(fmt.Sprintf("shard%d_fences_per_commit", k), n.fences, n.commits)
			add(fmt.Sprintf("shard%d_recovery_us", k), uint64(ms.xs.Shard(k).RecoveryTime.Microseconds()))
		}
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
