package kvserve

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/scm"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// TestServedSetCostModel pins the device cost of a served overwrite SET to
// the commit protocol's own: the value block's allocation and the old
// block's free ride the transaction's record, so redo pays its three
// ordering points (log flush, write-back, truncation) and the hybrid undo
// path its two, with one log append (two: batch and marker) and no pheap
// lane-log append. Before transactional allocation rode the commit record
// the same SET paid ten fences, seven of them the allocator's.
//
// The value's bytes never enter the record either — they are stored into
// the block the transaction just allocated and flushed ahead of it — so a
// 2048-byte SET appends the same three pairs (tree pointer, bit set, bit
// clear) and streams the same write-through bytes as a 64-byte one, and
// differs only in the lines it flushes. In hybrid mode both are one-word
// write sets and take the two-fence undo path. A change that logs payload
// again fails here on the record and write-through bytes.
//
// A 2-shard server pays exactly the same per SET: routing picks the PM, and
// the transaction runs on a thread that PM's transaction system kept from
// the SET before, so no slot is bound inside the measured window. (When
// every sharded SET leased and closed a thread of its own it cost 3.12
// fences in both modes.)
func TestServedSetCostModel(t *testing.T) {
	for _, c := range []struct {
		mode                  string
		fences, appends, trun float64
		payload, streamed     float64 // per SET: record payload bytes; device write-through bytes
	}{
		// [tag ts n] + 3 pairs; 11 log words, 2 bitmap words, the log head.
		{"redo", 3, 1, 1, 8 * 9, 8 * (11 + 2 + 1)},
		// [tag n] + 3 pairs, then [tag ts]; 10 + 4 log words, 2 bitmap words.
		{"hybrid", 2, 2, 0, 8 * (8 + 2), 8 * (10 + 4 + 2)},
	} {
		for _, sz := range []struct {
			value int
			lines float64 // the record block's, plus the tree leaf's
		}{{64, 3}, {2048, 34}} {
			for _, shards := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%dB/%dshards", c.mode, sz.value, shards), func(t *testing.T) {
					cfg := core.Config{DeviceSize: 32 << 20, HeapSize: 4 << 20, Threads: 2, Dir: t.TempDir(), CommitMode: c.mode}
					devs := make([]*scm.Device, shards)
					for k := range devs {
						var err error
						if devs[k], err = scm.Open(scm.Config{Size: cfg.DeviceSize, Mode: scm.DelayAccount}); err != nil {
							t.Fatal(err)
						}
					}
					var s *Server
					if shards == 1 {
						pm, err := core.Attach(devs[0], cfg)
						if err != nil {
							t.Fatal(err)
						}
						defer pm.Close()
						if s, err = New(pm); err != nil {
							t.Fatal(err)
						}
					} else {
						st, err := shard.Attach(devs, shard.Config{Config: cfg, Shards: shards})
						if err != nil {
							t.Fatal(err)
						}
						defer st.Close()
						if s, err = NewSharded(st); err != nil {
							t.Fatal(err)
						}
					}
					// One 16-byte key per shard: the benchmark's SET.
					keys := make([]string, shards)
					for i, found := 0, 0; found < shards; i++ {
						key := fmt.Sprintf("0123456789ab%04d", i)
						if k := s.store.ShardOf(key); keys[k] == "" {
							keys[k] = key
							found++
						}
					}
					set := func(i int) {
						t.Helper()
						value := fmt.Sprintf("%0*d", sz.value, i)
						if reply := show(s.do("SET", keys[i%shards], value)); reply != "+OK" {
							t.Fatal(reply)
						}
					}
					snapshot := func() (sum scm.StatsSnapshot) {
						for _, dev := range devs {
							d := dev.Snapshot()
							sum.Fences += d.Fences
							sum.Flushes += d.Flushes
							sum.BytesWT += d.BytesWT
						}
						return sum
					}
					// The insert and the first overwrites adopt superblocks and
					// settle the tree; then every overwrite costs the same.
					for i := 0; i < 4*shards; i++ {
						set(i)
					}
					const n = 8
					dev0, tel0 := snapshot(), telemetry.Default.Snapshot()
					for i := 0; i < n; i++ {
						set(10 + i)
					}
					dev1, tel1 := snapshot(), telemetry.Default.Snapshot()
					perSet := func(name string, delta float64, want float64) {
						t.Helper()
						if got := delta / n; got != want {
							t.Errorf("%s per SET = %v, want %v", name, got, want)
						}
					}
					perSet("fences", float64(dev1.Fences-dev0.Fences), c.fences)
					perSet("flushed lines", float64(dev1.Flushes-dev0.Flushes), sz.lines)
					perSet("write-through bytes", float64(dev1.BytesWT-dev0.BytesWT), c.streamed)
					for name, want := range map[string]float64{
						"rawl_appends_total":              c.appends,
						"rawl_append_payload_bytes_total": c.payload,
						"rawl_truncations_total":          c.trun,
						"pheap_lane_log_appends_total":    0,
						"pheap_tx_reservations_total":     1,
						"pheap_allocs_total":              1,
						"pheap_frees_total":               1,
						"mtm_thread_leases_total":         0,
						"mtm_fresh_lines_flushed_total":   sz.lines - 1,
					} {
						perSet(name, tel1[name]-tel0[name], want)
					}
				})
			}
		}
	}
}
