package kvserve

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/resp"
	"repro/internal/shard"
)

// respClient is a test-side RESP2 connection.
type respClient struct {
	conn net.Conn
	r    *resp.Reader
	w    *resp.Writer
}

func respConnect(addr string) (*respClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &respClient{conn: conn, r: resp.NewReader(conn), w: resp.NewWriter(conn)}, nil
}

func respDial(t *testing.T, addr string) *respClient {
	t.Helper()
	c, err := respConnect(addr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// send sends one command and reads one reply.
func (c *respClient) send(args ...string) (resp.Value, error) {
	c.w.WriteCommandStrings(args...)
	if err := c.w.Flush(); err != nil {
		return resp.Value{}, err
	}
	return c.r.ReadValue()
}

// do is send that fails the test on an I/O error.
func (c *respClient) do(t *testing.T, args ...string) resp.Value {
	t.Helper()
	v, err := c.send(args...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return v
}

// expect sends one command and checks that its reply, rendered by show,
// is one of want. It reports instead of failing the test, for client
// goroutines other than the test's own.
func (c *respClient) expect(args []string, want ...string) error {
	v, err := c.send(args...)
	if err != nil {
		return fmt.Errorf("%q: %w", args, err)
	}
	for _, w := range want {
		if show(v) == w {
			return nil
		}
	}
	return fmt.Errorf("%q -> %q, want %q", args, show(v), want)
}

// text is do with the reply rendered by show.
func (c *respClient) text(t *testing.T, args ...string) string {
	t.Helper()
	return show(c.do(t, args...))
}

func (c *respClient) status(t *testing.T, args ...string) string {
	t.Helper()
	v := c.do(t, args...)
	if v.Type != '+' {
		t.Fatalf("%v: got %+v, want simple string", args, v)
	}
	return v.Str
}

func (c *respClient) integer(t *testing.T, args ...string) int64 {
	t.Helper()
	v := c.do(t, args...)
	if v.Type != ':' {
		t.Fatalf("%v: got %+v, want integer", args, v)
	}
	return v.Int
}

// bulk returns the payload and false for a null bulk.
func (c *respClient) bulk(t *testing.T, args ...string) ([]byte, bool) {
	t.Helper()
	v := c.do(t, args...)
	if v.Type != '$' {
		t.Fatalf("%v: got %+v, want bulk", args, v)
	}
	return v.Bulk, !v.Null
}

func (c *respClient) respErr(t *testing.T, args ...string) string {
	t.Helper()
	v := c.do(t, args...)
	if v.Type != '-' {
		t.Fatalf("%v: got %+v, want error", args, v)
	}
	return v.Str
}

// testRESPSemantics drives the redis-compatible surface over one RESP
// connection: strings (binary-safe), multi-key commands, hashes, TTLs,
// type errors. Shared by the unsharded and sharded wire tests.
func testRESPSemantics(t *testing.T, c *respClient) {
	if got := c.status(t, "PING"); got != "PONG" {
		t.Fatalf("PING -> %q", got)
	}
	if v := c.do(t, "PING", "hello"); string(v.Bulk) != "hello" {
		t.Fatalf("PING hello -> %+v", v)
	}

	// Binary-safe strings: spaces, CRLF, NUL all round-trip.
	bin := "spaces and\r\nCRLF and \x00 NUL \xff bytes"
	if got := c.status(t, "SET", "rk", bin); got != "OK" {
		t.Fatalf("SET -> %q", got)
	}
	if got, ok := c.bulk(t, "GET", "rk"); !ok || string(got) != bin {
		t.Fatalf("GET rk = %q (present=%v), want the binary payload back", got, ok)
	}
	if _, ok := c.bulk(t, "GET", "rmissing"); ok {
		t.Fatal("GET of a missing key must answer null bulk")
	}
	if n := c.integer(t, "DEL", "rk"); n != 1 {
		t.Fatalf("DEL -> %d", n)
	}
	if n := c.integer(t, "DEL", "rk"); n != 0 {
		t.Fatalf("second DEL -> %d", n)
	}

	// MSET/MGET: values with spaces, null for holes.
	if got := c.status(t, "MSET", "ra", "value one", "rb", "value two"); got != "OK" {
		t.Fatalf("MSET -> %q", got)
	}
	v := c.do(t, "MGET", "ra", "rhole", "rb")
	if v.Type != '*' || len(v.Array) != 3 {
		t.Fatalf("MGET -> %+v", v)
	}
	if string(v.Array[0].Bulk) != "value one" || !v.Array[1].Null || string(v.Array[2].Bulk) != "value two" {
		t.Fatalf("MGET elements = %+v", v.Array)
	}
	if n := c.integer(t, "MDEL", "ra", "rb", "rhole"); n != 2 {
		t.Fatalf("MDEL -> %d", n)
	}

	// Hashes.
	if n := c.integer(t, "HSET", "rh", "f1", "v1", "f2", "v 2"); n != 2 {
		t.Fatalf("HSET -> %d", n)
	}
	if n := c.integer(t, "HSET", "rh", "f1", "v1b", "f3", "v3"); n != 1 {
		t.Fatalf("HSET update+add -> %d, want 1 new field", n)
	}
	if got, ok := c.bulk(t, "HGET", "rh", "f1"); !ok || string(got) != "v1b" {
		t.Fatalf("HGET f1 = %q (present=%v)", got, ok)
	}
	if _, ok := c.bulk(t, "HGET", "rh", "fmissing"); ok {
		t.Fatal("HGET of a missing field must answer null")
	}
	if n := c.integer(t, "HLEN", "rh"); n != 3 {
		t.Fatalf("HLEN -> %d", n)
	}
	all := c.do(t, "HGETALL", "rh")
	if all.Type != '*' || len(all.Array) != 6 {
		t.Fatalf("HGETALL -> %+v", all)
	}
	fields := map[string]string{}
	for i := 0; i < len(all.Array); i += 2 {
		fields[string(all.Array[i].Bulk)] = string(all.Array[i+1].Bulk)
	}
	if fields["f1"] != "v1b" || fields["f2"] != "v 2" || fields["f3"] != "v3" {
		t.Fatalf("HGETALL fields = %v", fields)
	}
	if n := c.integer(t, "HDEL", "rh", "f1", "fmissing"); n != 1 {
		t.Fatalf("HDEL -> %d", n)
	}
	if n := c.integer(t, "HLEN", "rh"); n != 2 {
		t.Fatalf("HLEN after HDEL -> %d", n)
	}

	// Cross-type access answers WRONGTYPE, like redis.
	if msg := c.respErr(t, "GET", "rh"); !strings.HasPrefix(msg, "WRONGTYPE") {
		t.Fatalf("GET of a hash -> %q, want WRONGTYPE", msg)
	}
	if got := c.status(t, "SET", "rs", "plain"); got != "OK" {
		t.Fatalf("SET -> %q", got)
	}
	if msg := c.respErr(t, "HGET", "rs", "f"); !strings.HasPrefix(msg, "WRONGTYPE") {
		t.Fatalf("HGET of a string -> %q, want WRONGTYPE", msg)
	}

	// TTLs over the wire (coarse bounds only; precise semantics are
	// covered by the fake-clock tests).
	if got := c.status(t, "SET", "rt", "v", "EX", "100"); got != "OK" {
		t.Fatalf("SET EX -> %q", got)
	}
	if n := c.integer(t, "TTL", "rt"); n <= 0 || n > 100 {
		t.Fatalf("TTL -> %d", n)
	}
	if n := c.integer(t, "PTTL", "rt"); n <= 0 || n > 100_000 {
		t.Fatalf("PTTL -> %d", n)
	}
	if n := c.integer(t, "PERSIST", "rt"); n != 1 {
		t.Fatalf("PERSIST -> %d", n)
	}
	if n := c.integer(t, "TTL", "rt"); n != -1 {
		t.Fatalf("TTL after PERSIST -> %d", n)
	}
	if n := c.integer(t, "TTL", "rnothere"); n != -2 {
		t.Fatalf("TTL of missing key -> %d", n)
	}
	if n := c.integer(t, "EXPIRE", "rt", "0"); n != 1 {
		t.Fatalf("EXPIRE 0 -> %d", n)
	}
	if _, ok := c.bulk(t, "GET", "rt"); ok {
		t.Fatal("key must be gone after EXPIRE 0")
	}

	// Errors: unknown commands and arity violations.
	if msg := c.respErr(t, "NONSENSE"); !strings.Contains(msg, "unknown command") {
		t.Fatalf("unknown command -> %q", msg)
	}
	if msg := c.respErr(t, "GET"); !strings.Contains(msg, "usage:") {
		t.Fatalf("GET arity error -> %q", msg)
	}
}

func TestRESPWire(t *testing.T) {
	_, _, addr := startServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})
	c := respDial(t, addr)
	defer c.conn.Close()
	testRESPSemantics(t, c)

	// QUIT acknowledges then closes.
	if got := c.status(t, "QUIT"); got != "OK" {
		t.Fatalf("QUIT -> %q", got)
	}
	if _, err := c.r.ReadValue(); err != io.EOF {
		t.Fatalf("read after QUIT: %v, want EOF", err)
	}
}

func TestRESPWireSharded(t *testing.T) {
	st, err := shard.Open(shard.Config{
		Config: core.Config{Dir: t.TempDir(), DeviceSize: 32 << 20},
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := NewSharded(st)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeRESP(rl)
	defer srv.Close()

	c := respDial(t, rl.Addr().String())
	defer c.conn.Close()
	testRESPSemantics(t, c)

	// A cross-shard MSET straddling all three shards, read back key by key.
	keys := make([]string, 3)
	for sh := 0; sh < 3; sh++ {
		for i := 0; ; i++ {
			k := fmt.Sprintf("xs%d-%d", sh, i)
			if st.ShardOf(k) == sh {
				keys[sh] = k
				break
			}
		}
	}
	args := []string{"MSET"}
	for i, k := range keys {
		args = append(args, k, fmt.Sprintf("cross value %d", i))
	}
	if got := c.status(t, args...); got != "OK" {
		t.Fatalf("cross-shard MSET -> %q", got)
	}
	for i, k := range keys {
		want := fmt.Sprintf("cross value %d", i)
		if got, ok := c.bulk(t, "GET", k); !ok || string(got) != want {
			t.Fatalf("GET %s = %q (present=%v), want %q", k, got, ok, want)
		}
	}
}

// TestRESPPipelining sends a whole batch of commands before reading any
// reply: replies must come back complete and in request order, and
// commands pipelined after QUIT are dropped unanswered.
func TestRESPPipelining(t *testing.T) {
	_, _, addr := startServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})
	c := respDial(t, addr)
	defer c.conn.Close()

	const n = 40
	for i := 0; i < n; i++ {
		c.w.WriteCommandStrings("SET", fmt.Sprintf("pk%d", i), fmt.Sprintf("pv %d", i))
	}
	for i := 0; i < n; i++ {
		c.w.WriteCommandStrings("GET", fmt.Sprintf("pk%d", i))
	}
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, err := c.r.ReadValue()
		if err != nil || v.Type != '+' || v.Str != "OK" {
			t.Fatalf("pipelined SET %d -> %+v, %v", i, v, err)
		}
	}
	for i := 0; i < n; i++ {
		v, err := c.r.ReadValue()
		want := fmt.Sprintf("pv %d", i)
		if err != nil || v.Type != '$' || string(v.Bulk) != want {
			t.Fatalf("pipelined GET %d -> %+v, %v (want %q)", i, v, err, want)
		}
	}

	// QUIT mid-batch: the tail is dropped, the connection closes.
	for _, cmd := range [][]string{{"PING"}, {"QUIT"}, {"SET", "dropped", "x"}, {"PING"}} {
		c.w.WriteCommandStrings(cmd...)
	}
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, err := c.r.ReadValue(); err != nil || v.Str != "PONG" {
		t.Fatalf("PING before QUIT -> %+v, %v", v, err)
	}
	if v, err := c.r.ReadValue(); err != nil || v.Str != "OK" {
		t.Fatalf("QUIT -> %+v, %v", v, err)
	}
	if _, err := c.r.ReadValue(); err != io.EOF {
		t.Fatalf("read after pipelined QUIT: %v, want EOF", err)
	}

	// The command after QUIT must not have executed.
	c2 := respDial(t, addr)
	defer c2.conn.Close()
	if _, ok := c2.bulk(t, "GET", "dropped"); ok {
		t.Fatal("command pipelined after QUIT was executed")
	}
}

// TestRESPProtocolError sends malformed framing: the server answers a
// protocol error and closes the connection (redis behavior), without
// disturbing other sessions.
func TestRESPProtocolError(t *testing.T) {
	_, _, addr := startServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})
	for _, raw := range []string{"*notanumber\r\n", "*1\r\n$-5\r\n", "*1\r\n:99\r\n"} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(raw)); err != nil {
			t.Fatal(err)
		}
		reply, _ := io.ReadAll(conn)
		conn.Close()
		if !bytes.HasPrefix(reply, []byte("-ERR protocol error")) {
			t.Fatalf("raw %q -> %q, want a protocol error then close", raw, reply)
		}
	}

	// A fresh session still works afterwards.
	c := respDial(t, addr)
	defer c.conn.Close()
	if got := c.status(t, "PING"); got != "PONG" {
		t.Fatalf("PING after protocol errors -> %q", got)
	}
}
