package kvserve

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mtm"
	"repro/internal/resp"
	"repro/internal/telemetry"
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
	_, _, addr := startServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20, GroupCommit: true})
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
	_, _, addr := startServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})
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
	_, _, addr := startServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})
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

// TestRetriedViewRewindsReply pins the rewind-on-retry rule: a GET renders
// its value straight into the reply buffer, so an attempt that loses to a
// concurrent commit once the bulk header is out has already written part of
// a reply. The retry must start the reply over, not append to the wreck.
//
// The conflicts are real ones. A lookup reads the expiry clock after it has
// loaded the record's header and before anyone loads the payload; the
// first reading inside each View copies both records to new blocks, twice,
// so the block the reader still points into is handed out again and filled
// by the second copy. The reader's next payload word is then newer than its
// snapshot, the words it has already read have moved, and the attempt is
// abandoned.
func TestRetriedViewRewindsReply(t *testing.T) {
	pm, err := core.Open(core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(pm)
	if err != nil {
		t.Fatal(err)
	}
	srv.sweepOnce.Do(func() {}) // no sweeper: it reads the clock too
	var armed atomic.Bool
	injected := ^uint64(0) // the count of finished Views the last conflict was injected at
	srv.now = func() int64 {
		if views := pm.TM().Snapshot().Views; armed.Load() && views != injected {
			injected = views
			for i := 0; i < 2; i++ {
				for _, key := range []string{"k", "h"} {
					h := srv.hash([]byte(key))
					if err := srv.store.Update(0, 0, func(n *node, tx *mtm.Tx) error {
						rec, err := n.tree.Get(tx, h)
						if err != nil {
							return err
						}
						return n.tree.Put(tx, h, rec)
					}); err != nil {
						t.Error(err)
					}
				}
			}
		}
		return time.Now().UnixNano()
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeRESP(l)
	t.Cleanup(func() { srv.Close() })
	c := respDial(t, l.Addr().String())
	value := bytes.Repeat([]byte("0123456789"), 100)
	bulk := func(b []byte) resp.Value { return resp.Value{Type: '$', Bulk: b} }
	expect := func(wants ...resp.Value) {
		t.Helper()
		if err := c.w.Flush(); err != nil {
			t.Fatal(err)
		}
		for i, want := range wants {
			got, err := c.r.ReadValue()
			if err != nil {
				t.Fatalf("reply %d: %v", i, err)
			}
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
				t.Fatalf("reply %d = %.100q, want %.100q", i, fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want))
			}
		}
	}
	c.w.WriteCommand([]byte("SET"), []byte("k"), value)
	c.w.WriteCommandStrings("HSET", "h", "f1", string(value), "f2", "two")
	expect(resp.Value{Type: '+', Str: "OK"}, resp.Value{Type: ':', Int: 2})

	// Fewer commands than a batch needs to be spread over partitions: one
	// goroutine serves them in order, and every reply after the first
	// starts part-way into the batch's reply buffer.
	armed.Store(true)
	retries := telemetry.Default.Snapshot()["mtm_readtx_retries_total"]
	c.w.WriteCommandStrings("PING")
	c.w.WriteCommandStrings("GET", "k")
	c.w.WriteCommandStrings("HGET", "h", "f1")
	c.w.WriteCommandStrings("HGETALL", "h")
	c.w.WriteCommandStrings("MGET", "k", "nosuch")
	c.w.WriteCommandStrings("GET", "h")
	c.w.WriteCommandStrings("PING")
	expect(
		resp.Value{Type: '+', Str: "PONG"},
		bulk(value),
		bulk(value),
		resp.Value{Type: '*', Array: []resp.Value{bulk([]byte("f1")), bulk(value), bulk([]byte("f2")), bulk([]byte("two"))}},
		resp.Value{Type: '*', Array: []resp.Value{bulk(value), {Type: '$', Null: true}}},
		resp.Value{Type: '-', Str: "WRONGTYPE operation against a key holding the wrong kind of value"},
		resp.Value{Type: '+', Str: "PONG"},
	)
	if got := telemetry.Default.Snapshot()["mtm_readtx_retries_total"] - retries; got < 4 {
		t.Fatalf("%v snapshot reads were retried, want the four that load a payload", got)
	}
}
