package kvserve

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// TestReadOnlySessionZeroLeases proves the slot-free read path end to
// end over the wire: a GET/MGET/COUNT/STATS-only connection performs
// zero thread leases and zero durability fences — reads ride snapshot
// Views, never the transaction log.
func TestReadOnlySessionZeroLeases(t *testing.T) {
	_, pm, addr := startServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})

	// Seed data on a writing connection, fully acknowledged before the
	// baselines are sampled.
	w := respDial(t, addr)
	for i := 0; i < 8; i++ {
		if got := w.text(t, "SET", fmt.Sprintf("rk%d", i), fmt.Sprintf("rv%d", i)); got != "+OK" {
			t.Fatalf("SET %d -> %q", i, got)
		}
	}
	if got := w.text(t, "QUIT"); got != "+OK" {
		t.Fatalf("QUIT -> %q", got)
	}
	w.conn.Close()

	leases0 := uint64(telemetry.Default.Snapshot()["mtm_thread_leases_total"])
	fences0 := pm.Device().Snapshot().Fences
	readtx0 := uint64(telemetry.Default.Snapshot()["mtm_readtx_started_total"])

	r := respDial(t, addr)
	for i := 0; i < 8; i++ {
		want := fmt.Sprintf("$rv%d", i)
		if got := r.text(t, "GET", fmt.Sprintf("rk%d", i)); got != want {
			t.Fatalf("GET rk%d -> %q, want %q", i, got, want)
		}
	}
	if got := r.text(t, "GET", "nosuch"); got != "(nil)" {
		t.Fatalf("GET nosuch -> %q", got)
	}
	// MGET answers one element per key from one snapshot.
	if got := r.text(t, "MGET", "rk0", "nosuch", "rk7"); got != "*[$rv0 (nil) $rv7]" {
		t.Fatalf("MGET -> %q", got)
	}
	if got := r.text(t, "COUNT"); got != ":8" {
		t.Fatalf("COUNT -> %q", got)
	}
	if got := r.text(t, "STATS"); !strings.HasPrefix(got, "$STATS ") {
		t.Fatalf("STATS -> %q", got)
	}

	if d := uint64(telemetry.Default.Snapshot()["mtm_thread_leases_total"]) - leases0; d != 0 {
		t.Errorf("read-only session performed %d thread leases, want 0", d)
	}
	if d := pm.Device().Snapshot().Fences - fences0; d != 0 {
		t.Errorf("read-only session issued %d fences, want 0", d)
	}
	if d := uint64(telemetry.Default.Snapshot()["mtm_readtx_started_total"]) - readtx0; d == 0 {
		t.Error("no snapshot read transactions recorded; reads did not take the View path")
	}
}

// TestConnectionsShareOneSlot pins who owns a transaction thread: the
// transaction, not the connection. With a single slot, two connections
// taking turns to write are both always answered — when a session kept
// the thread of its first write for life, the second connection's SET
// waited out LeaseTimeout and was refused.
func TestConnectionsShareOneSlot(t *testing.T) {
	_, pm, addr := startServer(t, core.Config{
		Dir:          t.TempDir(),
		DeviceSize:   64 << 20,
		Threads:      1,
		LeaseTimeout: 2 * time.Second,
	})
	a, b := respDial(t, addr), respDial(t, addr)
	defer a.conn.Close()
	defer b.conn.Close()
	for i := 0; i < 20; i++ {
		for name, c := range map[string]*respClient{"a": a, "b": b} {
			if got := c.text(t, "SET", fmt.Sprintf("%s%d", name, i), fmt.Sprintf("v%d", i)); got != "+OK" {
				t.Fatalf("connection %s, SET %d -> %q", name, i, got)
			}
		}
	}
	if got := a.text(t, "COUNT"); got != ":40" {
		t.Fatalf("COUNT -> %q", got)
	}
	if got := pm.TM().LiveThreads(); got != 0 {
		t.Fatalf("live threads between commands = %d, want 0", got)
	}
}
