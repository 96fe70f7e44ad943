package kvserve

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// TestRequestAttribution checks the acceptance bar for phase attribution:
// a SET request's span tree, captured by the flight recorder, has an exec
// span covering at least 90% of the request's wall time (the command was
// parsed before its request began), and the transaction under exec carries its commit phases — at
// any shard count, since every store parents its transactions under the
// request's exec span.
func TestRequestAttribution(t *testing.T) {
	t.Run("unsharded", func(t *testing.T) {
		srv, _, _ := startServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})
		testRequestAttribution(t, srv)
	})
	t.Run("2 shards", func(t *testing.T) {
		srv, _, _ := startSharded(t, 2, core.Config{Dir: t.TempDir(), DeviceSize: 32 << 20})
		testRequestAttribution(t, srv)
	})
}

func testRequestAttribution(t *testing.T, srv *Server) {
	telemetry.EnableAttribution()
	t.Cleanup(func() {
		telemetry.DisableAttribution()
		telemetry.DefaultRecorder.Configure(0, 0, 0)
	})

	// Calibrate the capture threshold from a warm-up request: well below a
	// request's wall time so SETs reliably capture, but far above the
	// sub-microsecond fence/alloc root spans — a 1ns threshold would turn
	// every such span into a full ring scan and slow the test 100x.
	start := time.Now()
	if reply := show(srv.do("SET", "warmup", "value")); reply != "+OK" {
		t.Fatalf("SET -> %q", reply)
	}
	threshold := time.Since(start) / 4
	if threshold < 2*time.Microsecond {
		threshold = 2 * time.Microsecond
	}
	telemetry.DefaultRecorder.Configure(threshold, 256, time.Minute)

	for i := 0; i < 50; i++ {
		if reply := show(srv.do("SET", fmt.Sprintf("key%d", i), fmt.Sprintf("value%d", i))); reply != "+OK" {
			t.Fatalf("SET -> %q", reply)
		}
	}
	if reply := show(srv.do("GET", "key7")); reply != "$value7" {
		t.Fatalf("GET -> %q", reply)
	}

	entries := telemetry.DefaultRecorder.Entries()
	if len(entries) == 0 {
		t.Fatal("flight recorder captured nothing at a 1ns threshold")
	}
	covered := false
	sawCommitTree := false
	for _, e := range entries {
		if e.Phase != "request" || e.DurNs <= 0 {
			continue
		}
		spans := map[uint64]telemetry.SpanView{}
		children := map[uint64][]telemetry.SpanView{}
		for _, sp := range e.Spans {
			spans[sp.ID] = sp
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
		var direct int64
		var execID uint64
		for _, sp := range children[e.Root] {
			if sp.Phase == "exec" {
				direct += sp.DurNs
				execID = sp.ID
			}
		}
		if float64(direct) >= 0.9*float64(e.DurNs) {
			covered = true
		}
		for _, sp := range children[execID] {
			if sp.Phase != "txn" {
				continue
			}
			got := map[string]bool{}
			for _, c := range children[sp.ID] {
				got[c.Phase] = true
			}
			if got["txn_body"] && got["log_append"] && got["log_fence"] &&
				got["write_back"] && got["truncate"] {
				sawCommitTree = true
			}
		}
	}
	if !covered {
		t.Error("no captured request had exec covering >= 90% of its wall time")
	}
	if !sawCommitTree {
		t.Error("no captured SET decomposed into txn_body/log_append/log_fence/write_back/truncate")
	}

	stats := show(srv.do("STATS"))
	for _, key := range []string{"latency_sample_rate", "readtx_started", "slow_captures"} {
		if !strings.Contains(stats, key) {
			t.Errorf("STATS reply missing %q:\n%s", key, stats)
		}
	}
}
