package kvserve

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

// BenchmarkTTLSweep measures the timer wheel's reclamation rate: each
// iteration stamps a batch of keys with near deadlines on the scripted
// clock, advances past them, and times only the sweep that physically
// reclaims records and wheel entries. keys/s is the reclaim throughput.
func BenchmarkTTLSweep(b *testing.B) {
	const keys = 512
	pm, err := core.Open(core.Config{Dir: b.TempDir(), DeviceSize: 256 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer pm.Close()
	s, err := New(pm)
	if err != nil {
		b.Fatal(err)
	}
	now := ttlBase
	s.now = func() int64 { return now }

	var reclaimed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("sweep%d", k)
			if rep := show(s.do("SET", key, "v", "EX", "1")); rep != "+OK" {
				b.Fatalf("SET %s: %s", key, rep)
			}
		}
		now += int64(10 * time.Second)
		b.StartTimer()
		// Each sweep transaction is bounded by sweepBudget; sweep until
		// the wheel runs dry, as the background sweeper's ticker would.
		total := 0
		for {
			n, err := s.sweepAll(now)
			if err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				break
			}
			total += n
		}
		if total != keys {
			b.Fatalf("sweeps reclaimed %d of %d due keys", total, keys)
		}
		reclaimed += int64(total)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(reclaimed)/secs, "keys/s")
	}
}
