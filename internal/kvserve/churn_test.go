package kvserve

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resp"
)

// TestConnectionChurn is the regression for the slot-exhaustion bug: a
// server with Threads:8 must serve 4x that many sequential connections
// without ever answering ErrTooManyThreads, because each disconnect
// returns its leased log slot to the pool. Each connection also sends a
// 16-deep pipelined batch, which starts its session's partition workers;
// once the server closes, every worker and session goroutine is gone.
func TestConnectionChurn(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	srv, pm, addr := startServer(t, core.Config{
		Dir: t.TempDir(), DeviceSize: 128 << 20, Threads: 8,
	})
	const conns = 4 * 8
	for i := 0; i < conns; i++ {
		c := respDial(t, addr)
		if got := c.text(t, "SET", fmt.Sprintf("churn%d", i), fmt.Sprintf("v%d", i)); got != "+OK" {
			t.Fatalf("conn %d SET -> %q", i, got)
		}
		if got := c.text(t, "GET", fmt.Sprintf("churn%d", i)); got != "$v"+fmt.Sprint(i) {
			t.Fatalf("conn %d GET -> %q", i, got)
		}
		for j := 0; j < 8; j++ {
			key := fmt.Sprintf("churn%d.%d", i, j)
			c.w.WriteCommandStrings("SET", key, key)
			c.w.WriteCommandStrings("GET", key)
		}
		if err := c.w.Flush(); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 16; j++ {
			v, err := c.r.ReadValue()
			if err != nil {
				t.Fatalf("conn %d batch reply %d: %v", i, j, err)
			}
			want := "+OK"
			if j%2 == 1 {
				want = fmt.Sprintf("$churn%d.%d", i, j/2)
			}
			if got := show(v); got != want {
				t.Fatalf("conn %d batch reply %d -> %q, want %q", i, j, got, want)
			}
		}
		if got := c.text(t, "QUIT"); got != "+OK" {
			t.Fatalf("conn %d QUIT -> %q", i, got)
		}
		c.conn.Close()
	}
	// One more connection proves the pool is still healthy, and reads
	// back a value written by an early, long-closed session.
	c := respDial(t, addr)
	if got := c.text(t, "GET", "churn0"); got != "$v0" {
		t.Fatalf("GET churn0 after churn -> %q", got)
	}
	c.conn.Close()
	_ = pm

	// Close waits for sessions and their workers to return; a returning
	// goroutine may still be counted for a moment.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	const margin = 2
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines+margin && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines+margin {
		t.Fatalf("%d goroutines after the server closed, %d before it started", n, goroutines)
	}
}

// TestDelCollision pins the DEL collision fix: with a hash that maps
// every key to one tree slot, DEL of a never-stored key must answer 0
// and leave the stored record intact, because the server now
// compares the stored key before deleting.
func TestDelCollision(t *testing.T) {
	srv, _, addr := startServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})
	srv.hash = func([]byte) uint64 { return 42 }
	c := respDial(t, addr)
	if got := c.text(t, "SET", "alpha", "one"); got != "+OK" {
		t.Fatalf("SET -> %q", got)
	}
	// "beta" hashes to alpha's slot. The old hash-only DEL destroyed
	// alpha's record and answered 1 here.
	if got := c.text(t, "DEL", "beta"); got != ":0" {
		t.Fatalf("DEL of colliding absent key -> %q, want :0", got)
	}
	if got := c.text(t, "GET", "alpha"); got != "$one" {
		t.Fatalf("GET alpha after colliding DEL -> %q", got)
	}
	// GET through the collision also answers null, not alpha's value.
	if got := c.text(t, "GET", "beta"); got != "(nil)" {
		t.Fatalf("GET of colliding absent key -> %q", got)
	}
	// Deleting the real key still works.
	if got := c.text(t, "DEL", "alpha"); got != ":1" {
		t.Fatalf("DEL alpha -> %q", got)
	}
}

// TestSetCollision pins the SET clobber fix: with a hash that maps
// every key to one tree slot, SET of a second key must answer an error
// and leave the first key's record intact — the old hash-only put
// silently destroyed it and answered OK. Overwriting the same key still works.
func TestSetCollision(t *testing.T) {
	srv, _, addr := startServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})
	srv.hash = func([]byte) uint64 { return 42 }
	c := respDial(t, addr)
	if got := c.text(t, "SET", "alpha", "one"); got != "+OK" {
		t.Fatalf("SET alpha -> %q", got)
	}
	if got := c.text(t, "SET", "beta", "two"); !strings.HasPrefix(got, "-ERR hash collision") {
		t.Fatalf("SET of colliding key -> %q, want -ERR hash collision", got)
	}
	if got := c.text(t, "GET", "alpha"); got != "$one" {
		t.Fatalf("GET alpha after colliding SET -> %q", got)
	}
	if got := c.text(t, "MSET", "beta", "x"); !strings.HasPrefix(got, "-ERR hash collision") {
		t.Fatalf("MSET of colliding key -> %q, want -ERR hash collision", got)
	}
	if got := c.text(t, "GET", "alpha"); got != "$one" {
		t.Fatalf("GET alpha after colliding MSET -> %q", got)
	}
	if got := c.text(t, "SET", "alpha", "updated"); got != "+OK" {
		t.Fatalf("same-key SET update -> %q", got)
	}
	if got := c.text(t, "GET", "alpha"); got != "$updated" {
		t.Fatalf("GET alpha after update -> %q", got)
	}
}

// TestLineTooLong sends an inline command line beyond resp.MaxInlineLen
// and expects an explicit protocol error, not a silent disconnect or an
// RST that destroys the reply: the server drains the rest of the line
// before it closes.
func TestLineTooLong(t *testing.T) {
	_, _, addr := startServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})
	errsBefore := telErrs.Value()
	c := respDial(t, addr)
	huge := strings.Repeat("x", resp.MaxInlineLen+6<<10)
	if _, err := fmt.Fprintf(c.conn, "SET big %s\r\n", huge); err != nil {
		t.Fatal(err)
	}
	v, err := c.r.ReadValue()
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	if got := show(v); !strings.HasPrefix(got, "-ERR protocol error: ") {
		t.Fatalf("oversized line -> %q", got)
	}
	// The reader cannot resync mid-line, so the server ends the session.
	if _, err := c.r.ReadValue(); err == nil {
		t.Fatal("connection stayed open after unrecoverable protocol error")
	}
	if got := telErrs.Value(); got <= errsBefore {
		t.Fatalf("kvserve_errors_total did not count the overlong line (%d -> %d)", errsBefore, got)
	}
}

// TestOversizedKeyAndValueRejected covers the encodeKV bound fix: keys
// beyond the record header's reach and values beyond the value cap are
// rejected with an error instead of corrupting the record encoding.
func TestOversizedKeyAndValueRejected(t *testing.T) {
	_, _, addr := startServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})
	c := respDial(t, addr)
	longKey := strings.Repeat("k", MaxKeyLen+1)
	if got := c.text(t, "SET", longKey, "v"); !strings.HasPrefix(got, "-ERR key too long") {
		t.Fatalf("oversized key -> %q", got)
	}
	longVal := strings.Repeat("v", MaxValueLen+1)
	if got := c.text(t, "SET", "k", longVal); !strings.HasPrefix(got, "-ERR value too long") {
		t.Fatalf("oversized value -> %q", got)
	}
	// A maximal legal key still round-trips.
	okKey := strings.Repeat("k", MaxKeyLen)
	if got := c.text(t, "SET", okKey, "edge"); got != "+OK" {
		t.Fatalf("max-size key SET -> %q", got)
	}
	if got := c.text(t, "GET", okKey); got != "$edge" {
		t.Fatalf("max-size key GET -> %q", got)
	}
}
