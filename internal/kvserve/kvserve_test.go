package kvserve

import (
	"fmt"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/resp"
	"repro/internal/shard"
)

// do runs one command through the engine as one whole request, the way
// a session runs it — resolve, then call.run into a fresh reply buffer —
// and parses the reply. In-process harnesses (crash exploration, the cost
// model, attribution, TTL) drive the server through it.
func (s *Server) do(args ...string) resp.Value {
	argv := make([][]byte, len(args))
	for i, a := range args {
		argv[i] = []byte(a)
	}
	c := call{s: s, w: new(resp.Writer)}
	cmd := s.resolve(argv)
	c.run(&cmd)
	v, n, err := resp.ParseValue(c.w.Bytes())
	if err != nil || n != c.w.Len() {
		return resp.Value{Type: '-', Str: fmt.Sprintf("unparsable reply %q: %v", c.w.Bytes(), err)}
	}
	return v
}

// show renders a reply compactly for assertions: +OK, :2, $value, (nil)
// for a null, -ERR msg, and *[...] around an array's elements.
func show(v resp.Value) string {
	switch {
	case v.Null:
		return "(nil)"
	case v.Type == '+' || v.Type == '-':
		return string(v.Type) + v.Str
	case v.Type == ':':
		return ":" + strconv.FormatInt(v.Int, 10)
	case v.Type == '$':
		return "$" + string(v.Bulk)
	}
	elems := make([]string, len(v.Array))
	for i, e := range v.Array {
		elems[i] = show(e)
	}
	return "*[" + strings.Join(elems, " ") + "]"
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
	go srv.ServeRESP(l)
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
	go srv.ServeRESP(l)
	t.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	return srv, st, l.Addr().String()
}

func TestProtocolRoundTrip(t *testing.T) {
	_, _, addr := startServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})
	c := respDial(t, addr)
	if got := c.text(t, "PING"); got != "+PONG" {
		t.Fatalf("PING -> %q", got)
	}
	if got := c.text(t, "SET", "lang", "go"); got != "+OK" {
		t.Fatalf("SET -> %q", got)
	}
	if got := c.text(t, "GET", "lang"); got != "$go" {
		t.Fatalf("GET -> %q", got)
	}
	if got := c.text(t, "SET", "lang", "golang 1.22"); got != "+OK" {
		t.Fatalf("SET spaces -> %q", got)
	}
	if got := c.text(t, "GET", "lang"); got != "$golang 1.22" {
		t.Fatalf("GET replaced -> %q", got)
	}
	if got := c.text(t, "COUNT"); got != ":1" {
		t.Fatalf("COUNT -> %q", got)
	}
	if got := c.text(t, "DEL", "lang"); got != ":1" {
		t.Fatalf("DEL -> %q", got)
	}
	if got := c.text(t, "GET", "lang"); got != "(nil)" {
		t.Fatalf("GET deleted -> %q", got)
	}
	if got := c.text(t, "DEL", "lang"); got != ":0" {
		t.Fatalf("double DEL -> %q", got)
	}
	if got := c.text(t, "NONSENSE"); got != "-ERR unknown command" {
		t.Fatalf("garbage -> %q", got)
	}
	if got := c.text(t, "QUIT"); got != "+OK" {
		t.Fatalf("QUIT -> %q", got)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, _, addr := startServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 128 << 20})
	const clients = 4
	done := make(chan error, clients)
	for w := 0; w < clients; w++ {
		go func(w int) {
			c, err := respConnect(addr)
			if err != nil {
				done <- err
				return
			}
			defer c.conn.Close()
			for i := 0; i < 100; i++ {
				v, err := c.send("SET", fmt.Sprintf("c%d-k%d", w, i), fmt.Sprintf("v%d", i))
				if reply := show(v); err != nil || reply != "+OK" {
					done <- fmt.Errorf("client %d: %q %v", w, reply, err)
					return
				}
			}
			for i := 0; i < 100; i++ {
				v, err := c.send("GET", fmt.Sprintf("c%d-k%d", w, i))
				if reply, want := show(v), fmt.Sprintf("$v%d", i); err != nil || reply != want {
					done <- fmt.Errorf("client %d get %d: %q %v", w, i, reply, err)
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
	c := respDial(t, addr)
	for i := 0; i < 50; i++ {
		if got := c.text(t, "SET", fmt.Sprintf("key%d", i), fmt.Sprintf("value%d", i)); got != "+OK" {
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
	c2 := respDial(t, addr2)
	if got := c2.text(t, "COUNT"); got != ":50" {
		t.Fatalf("COUNT after restart -> %q", got)
	}
	for i := 0; i < 50; i++ {
		want := fmt.Sprintf("$value%d", i)
		if got := c2.text(t, "GET", fmt.Sprintf("key%d", i)); got != want {
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
	c := respDial(t, addr)
	for i := 0; i < 20; i++ {
		if got := c.text(t, "SET", fmt.Sprintf("sk%d", i), fmt.Sprintf("sv%d", i)); got != "+OK" {
			t.Fatalf("SET %d -> %q", i, got)
		}
	}
	if got := c.text(t, "GET", "sk0"); got != "$sv0" {
		t.Fatalf("GET -> %q", got)
	}
	reply, _ := c.bulk(t, "STATS")
	fields := strings.Fields(string(reply))
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
