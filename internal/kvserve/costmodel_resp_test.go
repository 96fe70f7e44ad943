package kvserve

import (
	"bytes"
	"fmt"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/resp"
	"repro/internal/scm"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// TestServedSetCostModelRESP is TestServedSetCostModel on the wire: the
// same overwrite SETs sent over a RESP session instead of through
// s.do, so the device cost of a served write is pinned on the path
// clients actually use — argument views out of the input buffer, the
// record framed in the session's scratch, one guarded tree descent — and
// not only beneath it. The expectations are that test's, number for
// number: nothing the serving shell does may add a fence, a flushed line,
// a logged word or an allocator call to the commit protocol's own.
func TestServedSetCostModelRESP(t *testing.T) {
	for _, c := range []struct {
		mode                  string
		fences, appends, trun float64
		payload, streamed     float64
	}{
		{"redo", 3, 1, 1, 8 * 9, 8 * (11 + 2 + 1)},
		{"hybrid", 2, 2, 0, 8 * (8 + 2), 8 * (10 + 4 + 2)},
	} {
		for _, sz := range []struct {
			value int
			lines float64
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
					st, err := shard.Attach(devs, shard.Config{Config: cfg, Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					defer st.Close()
					s, err := NewSharded(st)
					if err != nil {
						t.Fatal(err)
					}
					l, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					go s.ServeRESP(l)
					defer s.Close()
					conn, err := net.Dial("tcp", l.Addr().String())
					if err != nil {
						t.Fatal(err)
					}
					defer conn.Close()
					r, w := resp.NewReader(conn), resp.NewWriter(conn)

					// One 16-byte key per shard: the benchmark's SET.
					keys := make([][]byte, shards)
					for i, found := 0, 0; found < shards; i++ {
						key := []byte(fmt.Sprintf("0123456789ab%04d", i))
						if k := s.shard(s.hash(key)); keys[k] == nil {
							keys[k] = key
							found++
						}
					}
					set := func(i int) {
						t.Helper()
						w.WriteCommand([]byte("SET"), keys[i%shards], bytes.Repeat([]byte{'a' + byte(i%26)}, sz.value))
						if err := w.Flush(); err != nil {
							t.Fatal(err)
						}
						if v, err := r.ReadValue(); err != nil || v.Str != "OK" {
							t.Fatalf("SET -> %+v, %v", v, err)
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
