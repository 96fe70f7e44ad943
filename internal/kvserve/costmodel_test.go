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
func TestServedSetCostModel(t *testing.T) {
	for _, c := range []struct {
		mode                  string
		fences, appends, trun float64
	}{
		{"redo", 3, 1, 1},
		{"hybrid", 2, 2, 0},
	} {
		t.Run(c.mode, func(t *testing.T) {
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
				// 16-byte key, 64-byte value: the benchmark's small SET, a
				// write set over three cache lines (two of value block,
				// one of tree leaf).
				value := fmt.Sprintf("%064d", i)
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
			perSet("flushed lines", float64(dev1.Flushes-dev0.Flushes), 3)
			for name, want := range map[string]float64{
				"rawl_appends_total":           c.appends,
				"rawl_truncations_total":       c.trun,
				"pheap_lane_log_appends_total": 0,
				"pheap_tx_reservations_total":  1,
				"pheap_allocs_total":           1,
				"pheap_frees_total":            1,
			} {
				perSet(name, tel1[name]-tel0[name], want)
			}
		})
	}
}
