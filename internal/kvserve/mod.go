package kvserve

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/mtm"
	"repro/internal/pds"
	"repro/internal/pds/mod"
	"repro/internal/pmem"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// modStore is the MOD shadow-update backend: one PM, one copy-on-write
// map, no transaction threads anywhere. Updates run the handler closure
// with a nil tx — each tree mutation inside it self-commits with a
// single fence — and Views pin one snapshot (an old root kept live by
// the reader) for the callback's duration.
//
// The relaxations versus mtmStore, all inherent to MOD's single-fence
// protocol and surfaced here rather than papered over:
//
//   - Durability is buffered: an acknowledged write's root swap becomes
//     durable at the next mutation's fence (or the server's Close), so a
//     crash can lose the single most recent acknowledgment — never more,
//     and never a torn state.
//   - Multi-key writes are per-key atomic only. MSET applies its pairs as
//     individual committed puts; a crash between them keeps a prefix.
//   - Handler closures are not transactions. The read-modify-write
//     commands (hash field updates, DEL's presence check) are safe
//     because every command on a key runs on one goroutine per session
//     and the pipeline partitioner keeps same-key commands ordered, but
//     there is no cross-command isolation to lean on.
type modStore struct {
	srv *Server
	n   node
}

// newModStore opens the shadow-update map under root and registers it with
// the PM's ModSweep. No initTTLNode: ttlRoot stays Nil and ttlLive false,
// so the sweeper never walks a wheel this backend cannot maintain (an
// mtm-era wheel in the image is simply dormant until the store is reopened
// on the mtm backend).
func newModStore(s *Server, pm *core.PM, root pmem.Addr) (*modStore, error) {
	tree, err := pds.NewOrderedMap(pds.BackendMOD,
		pds.Env{RT: pm.Runtime(), Heap: pm.Heap()}, root)
	if err != nil {
		return nil, err
	}
	s.mod = tree.(interface{ Mod() *mod.Map }).Mod()
	pm.RegisterMod(s.mod)
	return &modStore{srv: s, n: node{pm: pm, tree: tree}}, nil
}

func (ms *modStore) NShards() int       { return 1 }
func (ms *modStore) ShardOf(string) int { return 0 }
func (ms *modStore) Node(int) *node     { return &ms.n }
func (ms *modStore) SupportsTTL() bool  { return false }

func (ms *modStore) Update(_ uint64, _ int, fn func(n *node, tx *mtm.Tx) error) error {
	return fn(&ms.n, nil)
}

func (ms *modStore) View(_ uint64, _ int, fn func(n *node, r mtm.Reader) error) error {
	return ms.n.tree.View(func(r mtm.Reader) error { return fn(&ms.n, r) })
}

func (ms *modStore) MPut(_ uint64, recs [][]byte) error {
	for _, rec := range recs {
		if err := putRecord(&ms.n, nil, ms.srv.hash(shard.RecordKey(rec)), rec, nil); err != nil {
			return err
		}
	}
	return nil
}

// StatsLine renders the STATS body for the MOD backend: device primitive
// counts, the shadow-update counters, and the headline fences-per-op
// ratio (1.00 when every mutation committed with exactly one fence).
func (ms *modStore) StatsLine() string {
	dev := ms.n.pm.Device().Snapshot()
	reg := telemetry.Default.Snapshot()
	var b strings.Builder
	b.WriteString("STATS backend=mod")
	add := func(k string, v uint64) { fmt.Fprintf(&b, " %s=%d", k, v) }
	add("stores", dev.Stores)
	add("wtstores", dev.WTStores)
	add("flushes", dev.Flushes)
	add("fences", dev.Fences)
	commits := uint64(reg["mod_commits_total"])
	add("mod_commits", commits)
	add("mod_commit_fences", uint64(reg["mod_commit_fences_total"]))
	add("mod_sync_fences", uint64(reg["mod_sync_fences_total"]))
	add("mod_shadow_bytes", uint64(reg["mod_shadow_bytes_total"]))
	add("mod_snapshots", uint64(reg["mod_snapshots_total"]))
	add("mod_reclaimed_blocks", uint64(reg["mod_reclaimed_blocks_total"]))
	fpo := 0.0
	if commits > 0 {
		fpo = reg["mod_commit_fences_total"] / float64(commits)
	}
	fmt.Fprintf(&b, " fences_per_op=%.2f", fpo)
	add("expired", uint64(telExpired.Value()))
	add("requests", telReqLat.Count())
	fmt.Fprintf(&b, " req_p50_us=%.1f req_p99_us=%.1f",
		telReqLat.Quantile(0.50)/1e3, telReqLat.Quantile(0.99)/1e3)
	return b.String()
}
