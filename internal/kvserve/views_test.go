package kvserve

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mtm"
	"repro/internal/pmem"
	"repro/internal/resp"
)

// Commands are views into the connection's input buffer and replies are
// rendered in place, so the serving shell is correct only if no view
// outlives its bytes. These tests, which CI also runs under the race
// detector, drive the lifetimes to their edges.

// TestPipelinedViewsSurviveBufferReuse pipelines several input buffers'
// worth of distinct SETs in one stream, so later commands land on the
// bytes earlier ones occupied, with runs long enough to spread across the
// partition goroutines, which then read their argument views concurrently.
// Every key must end up with its own value.
func TestPipelinedViewsSurviveBufferReuse(t *testing.T) {
	_, addr, _ := startRESPServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20, GroupCommit: true})
	c := respDial(t, addr)
	const n = 600 // × ~1 KiB: nine times the 64 KiB input buffer
	value := func(i int) []byte { return bytes.Repeat([]byte{'A' + byte(i%53)}, 1000+i%50) }
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			c.w.WriteCommand([]byte("SET"), []byte(fmt.Sprintf("reuse%04d", i)), value(i))
		}
		sent <- c.w.Flush()
	}()
	for i := 0; i < n; i++ {
		if v, err := c.r.ReadValue(); err != nil || v.Str != "OK" {
			t.Fatalf("SET %d -> %+v, %v", i, v, err)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c.w.WriteCommandStrings("GET", fmt.Sprintf("reuse%04d", i))
	}
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if v, err := c.r.ReadValue(); err != nil || !bytes.Equal(v.Bulk, value(i)) {
			t.Fatalf("GET %d -> %d bytes %.20q, %v; want %d × %q", i, len(v.Bulk), v.Bulk, err, len(value(i)), value(i)[0])
		}
	}
}

// TestPipelinedBufferGrowth puts a frame larger than the input buffer — an
// MSET of two maximum-size values — in the middle of a pipelined stream,
// between commands whose views were taken before the buffer grew and
// after; then a bulk past the value cap but within the protocol's, which
// must earn a command error and leave the session open.
func TestPipelinedBufferGrowth(t *testing.T) {
	_, addr, _ := startRESPServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})
	c := respDial(t, addr)
	big1, big2 := bytes.Repeat([]byte("x"), MaxValueLen), bytes.Repeat([]byte("y"), MaxValueLen)
	over := bytes.Repeat([]byte("z"), resp.MaxBulkLen)
	sent := make(chan error, 1)
	go func() {
		c.w.WriteCommandStrings("SET", "before", "b")
		c.w.WriteCommand([]byte("MSET"), []byte("big1"), big1, []byte("big2"), big2)
		c.w.WriteCommandStrings("SET", "after", "a")
		c.w.WriteCommandStrings("GET", "before")
		c.w.WriteCommandStrings("GET", "big2")
		c.w.WriteCommand([]byte("SET"), []byte("over"), over)
		c.w.WriteCommandStrings("GET", "after")
		sent <- c.w.Flush()
	}()
	for i, want := range []string{"+OK", "+OK", "+OK", "$b", "$" + string(big2), "-ERR value too long (max 57344 bytes)", "$a"} {
		v, err := c.r.ReadValue()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if got := string(v.Type) + v.Str + string(v.Bulk); got != want {
			t.Fatalf("reply %d = %.60q, want %.60q", i, got, want)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// TestSkippedUnitsBeforeTornFrame sends a command, then empty frames the
// reader skips, then a command cut in two. The skipped units must not make
// the torn command look available: reading it would wait on the stream and
// refill the buffer under the first command's key.
func TestSkippedUnitsBeforeTornFrame(t *testing.T) {
	_, addr, _ := startRESPServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second)) // a parked session is a failure, not a hang
	r := resp.NewReader(conn)
	first := "*3\r\n$3\r\nSET\r\n$8\r\ntorn-key\r\n$5\r\nvalue\r\n*0\r\n\r\n*2\r\n$3\r\nGET\r\n$8\r\ntor"
	if _, err := io.WriteString(conn, first); err != nil {
		t.Fatal(err)
	}
	if v, err := r.ReadValue(); err != nil || v.Str != "OK" {
		t.Fatalf("SET -> %+v, %v", v, err)
	}
	time.Sleep(10 * time.Millisecond) // let the session park on the torn frame
	if _, err := io.WriteString(conn, "n-key\r\n"); err != nil {
		t.Fatal(err)
	}
	if v, err := r.ReadValue(); err != nil || string(v.Bulk) != "value" {
		t.Fatalf("GET -> %+v, %v", v, err)
	}
}

// abandonStore is a store whose every View first runs its body against a
// reader that dies halfway through the first large load — a snapshot read
// losing to a concurrent commit — and then runs it again for real.
type abandonStore struct{ store }

type dyingReader struct{ mtm.Reader }

type abandoned struct{}

func (d dyingReader) Load(buf []byte, a pmem.Addr) {
	if len(buf) < 64 {
		d.Reader.Load(buf, a)
		return
	}
	d.Reader.Load(buf[:len(buf)/2], a)
	panic(abandoned{})
}

func (as abandonStore) View(parent uint64, k int, fn func(n *node, r mtm.Reader) error) error {
	return as.store.View(parent, k, func(n *node, r mtm.Reader) error {
		func() {
			defer func() {
				if p := recover(); p != nil && p != (abandoned{}) {
					panic(p)
				}
			}()
			fn(n, dyingReader{r})
		}()
		return fn(n, r)
	})
}

// TestRetriedViewRewindsReply pins the rewind-on-retry rule: a GET renders
// its value straight into the reply buffer, so an attempt abandoned halfway
// through the load has already written a bulk header and half a payload.
// The retry must start the reply over, not append to the wreck.
func TestRetriedViewRewindsReply(t *testing.T) {
	pm, err := core.Open(core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(pm)
	if err != nil {
		t.Fatal(err)
	}
	srv.store = abandonStore{srv.store}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeRESP(l)
	t.Cleanup(func() { srv.Close() })
	c := respDial(t, l.Addr().String())
	value := bytes.Repeat([]byte("0123456789"), 100)
	c.w.WriteCommand([]byte("SET"), []byte("k"), value)
	c.w.WriteCommandStrings("HSET", "h", "f1", string(value), "f2", "two")
	c.w.WriteCommandStrings("PING")
	c.w.WriteCommandStrings("GET", "k")
	c.w.WriteCommandStrings("HGET", "h", "f1")
	c.w.WriteCommandStrings("HGETALL", "h")
	c.w.WriteCommandStrings("MGET", "k", "nosuch")
	c.w.WriteCommandStrings("GET", "h")
	c.w.WriteCommandStrings("PING")
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	bulk := func(b []byte) resp.Value { return resp.Value{Type: '$', Bulk: b} }
	for i, want := range []resp.Value{
		{Type: '+', Str: "OK"},
		{Type: ':', Int: 2},
		{Type: '+', Str: "PONG"},
		bulk(value),
		bulk(value),
		{Type: '*', Array: []resp.Value{bulk([]byte("f1")), bulk(value), bulk([]byte("f2")), bulk([]byte("two"))}},
		{Type: '*', Array: []resp.Value{bulk(value), {Type: '$', Null: true}}},
		{Type: '-', Str: "WRONGTYPE operation against a key holding the wrong kind of value"},
		{Type: '+', Str: "PONG"},
	} {
		got, err := c.r.ReadValue()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("reply %d = %.100q, want %.100q", i, fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want))
		}
	}
}
