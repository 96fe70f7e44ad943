package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync/atomic"
	"time"
)

// reply is one parsed RESP2 reply. data aliases the client's read buffer
// and is valid until the next read; a null bulk has kind '$' and nil data.
type reply struct {
	kind byte // '+', '-', ':' or '$'
	n    int64
	data []byte
}

// client is the benchmark's own minimal RESP client: it writes one round
// of commands with a single write and reads the replies in order. It does
// not use the program's resp package, so a change there moves the server
// side of a measurement only.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	enc  *encoder
	out  []byte
	bulk []byte

	ops               atomic.Int64 // answered ops, read by the CPU sampler
	bytesIn, bytesOut int64
}

func dial(addr string, enc *encoder) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn, enc), nil
}

func newClient(conn net.Conn, enc *encoder) *client {
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), enc: enc}
}

func (c *client) close() { c.conn.Close() }

func (c *client) readReply(r *reply) error {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	c.bytesIn += int64(len(line))
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return fmt.Errorf("malformed reply line %q", line)
	}
	r.kind, r.n, r.data = line[0], 0, nil
	body := line[1 : len(line)-2]
	switch r.kind {
	case '+', '-':
		r.data = body
	case ':':
		r.n, err = strconv.ParseInt(string(body), 10, 64)
	case '$':
		r.n, err = strconv.ParseInt(string(body), 10, 64)
		if err != nil || r.n < 0 {
			break
		}
		if cap(c.bulk) < int(r.n)+2 {
			c.bulk = make([]byte, r.n+2)
		}
		c.bulk = c.bulk[:r.n+2]
		if _, err = io.ReadFull(c.br, c.bulk); err != nil {
			return err
		}
		c.bytesIn += r.n + 2
		r.data = c.bulk[:r.n]
	default:
		return fmt.Errorf("unexpected reply type %q", line)
	}
	return err
}

// tally counts what a driver attempted and what went wrong.
type tally struct {
	attempted, failed int64
	firstFailure      string
}

func (t *tally) fail(why string) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = why
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

// round sends ops as one pipelined window and checks every reply. onReply,
// when set, is called as each reply arrives with the time since the window
// was sent: the per-command send-to-reply latency. A transport error ends
// the run; a wrong or error reply is tallied and the run continues.
func (c *client) round(ops []op, t *tally, onReply func(time.Duration)) error {
	c.out = c.out[:0]
	for i := range ops {
		c.out = c.enc.appendCommand(c.out, &ops[i])
	}
	start := time.Now()
	if _, err := c.conn.Write(c.out); err != nil {
		return err
	}
	c.bytesOut += int64(len(c.out))
	var r reply
	for i := range ops {
		if err := c.readReply(&r); err != nil {
			return err
		}
		if onReply != nil {
			onReply(time.Since(start))
		}
		t.attempted++
		if ok, why := c.enc.check(&ops[i], &r); !ok {
			t.fail(why)
		}
		c.ops.Add(1)
	}
	return nil
}
