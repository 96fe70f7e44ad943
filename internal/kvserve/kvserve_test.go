package kvserve

import (
	"bufio"
	"fmt"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
)

type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

func (c *client) cmd(t *testing.T, line string) string {
	t.Helper()
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		t.Fatal(err)
	}
	reply, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return reply[:len(reply)-1]
}

func startServer(t *testing.T, cfg core.Config) (*Server, *core.PM, string) {
	t.Helper()
	pm, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(pm)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv, pm, l.Addr().String()
}

// startSharded is startServer over an N-shard store.
func startSharded(t *testing.T, shards int, cfg core.Config) (*Server, *shard.Store, string) {
	t.Helper()
	st, err := shard.Open(shard.Config{Config: cfg, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewSharded(st)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	return srv, st, l.Addr().String()
}

func TestProtocolRoundTrip(t *testing.T) {
	_, _, addr := startServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})
	c := dial(t, addr)
	if got := c.cmd(t, "PING"); got != "PONG" {
		t.Fatalf("PING -> %q", got)
	}
	if got := c.cmd(t, "SET lang go"); got != "OK" {
		t.Fatalf("SET -> %q", got)
	}
	if got := c.cmd(t, "GET lang"); got != "VALUE go" {
		t.Fatalf("GET -> %q", got)
	}
	if got := c.cmd(t, "SET lang golang 1.22"); got != "OK" {
		t.Fatalf("SET spaces -> %q", got)
	}
	if got := c.cmd(t, "GET lang"); got != "VALUE golang 1.22" {
		t.Fatalf("GET replaced -> %q", got)
	}
	if got := c.cmd(t, "COUNT"); got != "COUNT 1" {
		t.Fatalf("COUNT -> %q", got)
	}
	if got := c.cmd(t, "DEL lang"); got != "OK" {
		t.Fatalf("DEL -> %q", got)
	}
	if got := c.cmd(t, "GET lang"); got != "MISSING" {
		t.Fatalf("GET deleted -> %q", got)
	}
	if got := c.cmd(t, "DEL lang"); got != "MISSING" {
		t.Fatalf("double DEL -> %q", got)
	}
	if got := c.cmd(t, "NONSENSE"); got != "ERROR unknown command" {
		t.Fatalf("garbage -> %q", got)
	}
	if got := c.cmd(t, "QUIT"); got != "BYE" {
		t.Fatalf("QUIT -> %q", got)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, _, addr := startServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 128 << 20})
	const clients = 4
	done := make(chan error, clients)
	for w := 0; w < clients; w++ {
		go func(w int) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				done <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for i := 0; i < 100; i++ {
				fmt.Fprintf(conn, "SET c%d-k%d v%d\n", w, i, i)
				if reply, _ := r.ReadString('\n'); reply != "OK\n" {
					done <- fmt.Errorf("client %d: %q", w, reply)
					return
				}
			}
			for i := 0; i < 100; i++ {
				fmt.Fprintf(conn, "GET c%d-k%d\n", w, i)
				want := fmt.Sprintf("VALUE v%d\n", i)
				if reply, _ := r.ReadString('\n'); reply != want {
					done <- fmt.Errorf("client %d get %d: %q", w, i, reply)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < clients; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestDataSurvivesServerRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{
		DevicePath: filepath.Join(dir, "scm.img"),
		Dir:        dir,
		DeviceSize: 64 << 20,
	}
	srv, pm, addr := startServer(t, cfg)
	c := dial(t, addr)
	for i := 0; i < 50; i++ {
		if got := c.cmd(t, fmt.Sprintf("SET key%d value%d", i, i)); got != "OK" {
			t.Fatalf("SET %d -> %q", i, got)
		}
	}
	c.conn.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}

	// Full process-style restart over the device image.
	_, _, addr2 := startServer(t, cfg)
	c2 := dial(t, addr2)
	if got := c2.cmd(t, "COUNT"); got != "COUNT 50" {
		t.Fatalf("COUNT after restart -> %q", got)
	}
	for i := 0; i < 50; i++ {
		want := fmt.Sprintf("VALUE value%d", i)
		if got := c2.cmd(t, fmt.Sprintf("GET key%d", i)); got != want {
			t.Fatalf("GET key%d -> %q", i, got)
		}
	}
}

// TestStatsCommand reads the one mtm STATS field set off a bare-PM server
// and a 2-shard one: the same fields, plus per-shard ones only where there
// is more than one shard.
func TestStatsCommand(t *testing.T) {
	t.Run("unsharded", func(t *testing.T) {
		_, _, addr := startServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})
		testStatsCommand(t, addr, 1)
	})
	t.Run("2 shards", func(t *testing.T) {
		_, _, addr := startSharded(t, 2, core.Config{Dir: t.TempDir(), DeviceSize: 32 << 20})
		testStatsCommand(t, addr, 2)
	})
}

func testStatsCommand(t *testing.T, addr string, shards int) {
	c := dial(t, addr)
	for i := 0; i < 20; i++ {
		if got := c.cmd(t, fmt.Sprintf("SET sk%d sv%d", i, i)); got != "OK" {
			t.Fatalf("SET %d -> %q", i, got)
		}
	}
	if got := c.cmd(t, "GET sk0"); got != "VALUE sv0" {
		t.Fatalf("GET -> %q", got)
	}
	reply := c.cmd(t, "STATS")
	fields := strings.Fields(reply)
	if len(fields) < 2 || fields[0] != "STATS" {
		t.Fatalf("STATS reply %q", reply)
	}
	kv := make(map[string]string)
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			t.Fatalf("malformed field %q in %q", f, reply)
		}
		kv[k] = v
	}
	num := func(k string) float64 {
		t.Helper()
		s, ok := kv[k]
		if !ok {
			t.Fatalf("STATS missing %q: %q", k, reply)
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("STATS %s=%q: %v", k, s, err)
		}
		return v
	}
	// 20 durable SETs committed before their replies, so the counters
	// must already reflect them when STATS is answered.
	if got := num("commits"); got < 20 {
		t.Errorf("commits = %v, want >= 20", got)
	}
	if got := num("fences"); got == 0 {
		t.Error("fences = 0, want > 0")
	}
	if got := num("log_appends"); got == 0 {
		t.Error("log_appends = 0, want > 0")
	}
	// 21 commands preceded STATS on this connection.
	if got := num("requests"); got < 21 {
		t.Errorf("requests = %v, want >= 21", got)
	}
	if p50, p99 := num("req_p50_us"), num("req_p99_us"); p50 <= 0 || p99 < p50 {
		t.Errorf("latency quantiles p50=%v p99=%v", p50, p99)
	}
	if got := num("fences_per_commit"); got < 3 {
		t.Errorf("fences_per_commit = %v, want >= 3 (sync redo)", got)
	}
	if got := num("shards"); got != float64(shards) {
		t.Errorf("shards = %v, want %d", got, shards)
	}
	for _, k := range []string{"aborts", "readonly", "stores", "wtstores", "flushes", "log_bytes", "fresh_bytes",
		"views", "readtx_started", "thread_leases", "latency_sample_rate", "slow_captures", "expired"} {
		num(k) // presence check
	}
	var perShard float64
	for k := 0; k < shards; k++ {
		if _, ok := kv[fmt.Sprintf("shard%d_commits", k)]; ok != (shards > 1) {
			t.Errorf("shard%d_commits present = %v on a %d-shard server", k, ok, shards)
		} else if ok {
			perShard += num(fmt.Sprintf("shard%d_commits", k))
			num(fmt.Sprintf("shard%d_fences_per_commit", k))
			num(fmt.Sprintf("shard%d_recovery_us", k))
		}
	}
	if shards > 1 && perShard != num("commits") {
		t.Errorf("per-shard commits sum to %v, commits = %v", perShard, num("commits"))
	}
}
