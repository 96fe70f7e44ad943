package kvserve

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scm"
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
			t.Run(fmt.Sprintf("%s/%dB", c.mode, sz.value), func(t *testing.T) {
				cfg := core.Config{DeviceSize: 32 << 20, HeapSize: 4 << 20, Threads: 2, Dir: t.TempDir(), CommitMode: c.mode}
				dev, err := scm.Open(scm.Config{Size: cfg.DeviceSize, Mode: scm.DelayAccount})
				if err != nil {
					t.Fatal(err)
				}
				pm, err := core.Attach(dev, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer pm.Close()
				s, err := New(pm)
				if err != nil {
					t.Fatal(err)
				}
				th, err := pm.NewThread()
				if err != nil {
					t.Fatal(err)
				}
				sess := &session{s: s, th: th}
				set := func(i int) {
					t.Helper()
					// 16-byte key: the benchmark's SET.
					value := fmt.Sprintf("%0*d", sz.value, i)
					if reply := s.handle(sess, th, "SET 0123456789abcdef "+value, 0); strings.HasPrefix(reply, "ERROR") {
						t.Fatal(reply)
					}
				}
				// The insert and the first overwrites adopt superblocks and
				// settle the tree; then every overwrite costs the same.
				for i := 0; i < 4; i++ {
					set(i)
				}
				const n = 8
				dev0, tel0 := dev.Snapshot(), telemetry.Default.Snapshot()
				for i := 0; i < n; i++ {
					set(10 + i)
				}
				dev1, tel1 := dev.Snapshot(), telemetry.Default.Snapshot()
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
					"mtm_fresh_lines_flushed_total":   sz.lines - 1,
				} {
					perSet(name, tel1[name]-tel0[name], want)
				}
			})
		}
	}
}
