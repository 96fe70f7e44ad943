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
		// The batch partitions' workers belong to the session: started
		// by the first partitioned batch, they cost later ones nothing.
		{"16-deep batch", encode(batch...), batchReply, 0},
	} {
		t.Run(tc.name, func(t *testing.T) { c.check(t, tc.req, tc.want, tc.allocs) })
	}
}

// check serves req until it is warm — the first rounds size the session's
// buffers, start its partition workers, insert the keys and settle the
// heap's superblocks; then every round is alike — and then pins what a
// round allocates.
func (c *wireClient) check(t *testing.T, req, want []byte, allocs float64) {
	c.t = t
	for i := 0; i < 8; i++ {
		c.roundTrip(req, want)
	}
	if got := testing.AllocsPerRun(200, func() { c.roundTrip(req, want) }); got != allocs {
		t.Errorf("%v allocs per round, want %v", got, allocs)
	}
}

// TestServedAllocsSharded is TestServedAllocs on the path every other
// layer joins: two shards under group commit, TTL-carrying SETs, hashes
// and an MSET whose keys span both shards. Commit epochs are recycled,
// cross-shard MSET stages its intents in recycled scratch, hashes decode
// and encode into the session's buffers, and a batch's concurrent
// commits share epochs: none of it costs the Go heap anything once warm.
func TestServedAllocsSharded(t *testing.T) {
	_, st, addr := startSharded(t, 2, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20, GroupCommit: true})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := &wireClient{t: t, conn: conn, buf: make([]byte, 64<<10)}

	// Keys named by their shard, so the MSET provably crosses.
	var onShard [2][][]byte
	for i := 0; len(onShard[0]) < 4 || len(onShard[1]) < 4; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if sh := st.ShardOf(k); len(onShard[sh]) < 4 {
			onShard[sh] = append(onShard[sh], []byte(k))
		}
	}
	small := bytes.Repeat([]byte("s"), 64)
	bulk := func(v []byte) []byte { return []byte(fmt.Sprintf("$%d\r\n%s\r\n", len(v), v)) }
	ok, zero := []byte("+OK\r\n"), []byte(":0\r\n")
	field := []byte("field")
	setEx := func(k []byte) [][]byte { return [][]byte{[]byte("SET"), k, small, []byte("EX"), []byte("1000")} }
	hset := func(k []byte) [][]byte { return [][]byte{[]byte("HSET"), k, field, small} }
	hget := func(k []byte) [][]byte { return [][]byte{[]byte("HGET"), k, field} }
	mset := [][]byte{[]byte("MSET"), onShard[0][0], small, onShard[1][0], small, onShard[0][1], small, onShard[1][1], small}

	// The hashes exist before the cases run, so every HSET answers 0.
	hashes := [][]byte{[]byte("hash-0"), []byte("hash-1"), []byte("hash-2"), []byte("hash-3")}
	for _, h := range hashes {
		c.roundTrip(encode(hset(h)), []byte(":1\r\n"))
	}

	// A 16-deep batch mixing them: keyed runs spread across the
	// partitions, split by the MSET barrier.
	var batch [][][]byte
	var batchReply []byte
	for i, h := range hashes {
		batch = append(batch, setEx(onShard[i%2][2+i/2]), hset(h), hget(h))
		batchReply = append(append(append(batchReply, ok...), zero...), bulk(small)...)
		if i == 1 {
			batch = append(batch, mset)
			batchReply = append(batchReply, ok...)
		}
	}
	batch = append(batch, [][]byte{[]byte("GET"), onShard[0][0]}, [][]byte{[]byte("GET"), onShard[1][0]}, [][]byte{[]byte("get"), onShard[1][1]})
	batchReply = append(batchReply, bytes.Repeat(bulk(small), 3)...)
	if len(batch) != 16 {
		t.Fatalf("batch of %d commands, want 16", len(batch))
	}

	for _, tc := range []struct {
		name      string
		req, want []byte
	}{
		{"SET EX", encode(setEx(onShard[0][0])), ok},
		{"HSET", encode(hset(hashes[0])), zero},
		{"HGET", encode(hget(hashes[0])), bulk(small)},
		{"cross-shard MSET", encode(mset), ok},
		{"16-deep batch", encode(batch...), batchReply},
	} {
		t.Run(tc.name, func(t *testing.T) { c.check(t, tc.req, tc.want, 0) })
	}
}
