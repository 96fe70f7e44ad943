//go:build !race

package kvserve

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/resp"
)

// wireClient is a RESP client that allocates nothing per round trip:
// requests are encoded ahead of time, replies are read into one buffer and
// compared against the bytes they must be. What AllocsPerRun then counts is
// the server's.
type wireClient struct {
	t    *testing.T
	conn net.Conn
	buf  []byte
}

// encode frames commands, each a list of arguments, as one pipelined write.
func encode(cmds ...[][]byte) []byte {
	var w resp.Writer
	for _, args := range cmds {
		w.WriteCommand(args...)
	}
	return append([]byte{}, w.Bytes()...)
}

func (c *wireClient) roundTrip(req, want []byte) {
	if _, err := c.conn.Write(req); err != nil {
		c.t.Fatal(err)
	}
	got := c.buf[:len(want)]
	if _, err := io.ReadFull(c.conn, got); err != nil {
		c.t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		c.t.Fatalf("reply %.80q, want %.80q", got, want)
	}
}

// TestServedAllocs is the serving shell's allocation identity: a command
// served over a real RESP session costs the Go heap nothing — no argv, no
// key string, no record, no reply, and no transaction closure either: the
// handlers call the one concrete store directly, so their closures stay on
// the stack. The counts are exact; a change that moves one moves it here
// first, before the benchmark's go_allocs_per_op.
//
// One allocation per command means a dynamic call is back between a
// handler and its transaction, and the closure escapes through it. Before
// the session owned its buffers each of these commands cost 11, and a
// 16-deep batch 16 × 11 plus its batch items.
func TestServedAllocs(t *testing.T) {
	_, _, addr := startServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := &wireClient{t: t, conn: conn, buf: make([]byte, 64<<10)}

	key := func(i int) []byte { return []byte(fmt.Sprintf("0123456789ab%04d", i)) }
	small, large := bytes.Repeat([]byte("s"), 64), bytes.Repeat([]byte("L"), 2048)
	bulk := func(v []byte) []byte { return []byte(fmt.Sprintf("$%d\r\n%s\r\n", len(v), v)) }
	ok := []byte("+OK\r\n")

	// A 16-deep pipelined batch, half writes and half reads over 8 keys:
	// enough commands to be spread across the batch partitions.
	var batch [][][]byte
	var batchReply []byte
	for i := 0; i < 8; i++ {
		batch = append(batch, [][]byte{[]byte("SET"), key(100 + i), small}, [][]byte{[]byte("get"), key(100 + i)})
		batchReply = append(append(batchReply, ok...), bulk(small)...)
	}

	for _, tc := range []struct {
		name      string
		req, want []byte
		allocs    float64
	}{
		{"SET 64 B", encode([][]byte{[]byte("SET"), key(1), small}), ok, 0},
		{"SET 2048 B", encode([][]byte{[]byte("SET"), key(2), large}), ok, 0},
		{"GET hit", encode([][]byte{[]byte("GET"), key(2)}), bulk(large), 0},
		{"GET miss", encode([][]byte{[]byte("GET"), key(3)}), []byte("$-1\r\n"), 0},
		{"lower-case verbs", encode([][]byte{[]byte("set"), key(1), small}, [][]byte{[]byte("Get"), key(1)}), append(ok, bulk(small)...), 0},
		// 3 partition goroutines.
		{"16-deep batch", encode(batch...), batchReply, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c.t = t
			// The first rounds size the session's buffers, insert the keys
			// and settle the heap's superblocks; then every round is alike.
			for i := 0; i < 8; i++ {
				c.roundTrip(tc.req, tc.want)
			}
			if got := testing.AllocsPerRun(200, func() { c.roundTrip(tc.req, tc.want) }); got != tc.allocs {
				t.Errorf("%v allocs per round, want %v", got, tc.allocs)
			}
		})
	}
}
