// Command respsmoke is a minimal RESP2 client that smoke-tests a running
// kvserved endpoint: it drives SET/GET (including a value with spaces,
// CRLF and NUL bytes), hashes, and TTLs over the wire and verifies every
// reply, exiting non-zero on the first mismatch.
// CI uses it so the RESP surface is exercised end to end without an
// external redis-cli in the image.
//
// Usage:
//
//	respsmoke [-addr localhost:6379]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"reflect"
	"time"

	"repro/internal/resp"
)

var addr = flag.String("addr", "localhost:6379", "RESP endpoint to smoke-test")

type client struct {
	conn net.Conn
	r    *resp.Reader
	w    *resp.Writer
}

func (c *client) do(args ...string) (resp.Value, error) {
	c.w.WriteCommandStrings(args...)
	if err := c.w.Flush(); err != nil {
		return resp.Value{}, err
	}
	return c.r.ReadValue()
}

func (c *client) expect(want resp.Value, args ...string) {
	got, err := c.do(args...)
	if err != nil {
		log.Fatalf("respsmoke: %v: %v", args, err)
	}
	if !reflect.DeepEqual(got, want) {
		log.Fatalf("respsmoke: %v: got %+v, want %+v", args, got, want)
	}
	fmt.Printf("respsmoke: ok %v\n", args)
}

func simple(s string) resp.Value { return resp.Value{Type: '+', Str: s} }
func integer(n int64) resp.Value { return resp.Value{Type: ':', Int: n} }
func bulk(s string) resp.Value   { return resp.Value{Type: '$', Bulk: []byte(s)} }
func nullBulk() resp.Value       { return resp.Value{Type: '$', Null: true} }

func main() {
	flag.Parse()
	conn, err := net.DialTimeout("tcp", *addr, 5*time.Second)
	if err != nil {
		log.Fatalf("respsmoke: dial %s: %v", *addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	c := &client{conn: conn, r: resp.NewReader(conn), w: resp.NewWriter(conn)}

	c.expect(simple("PONG"), "PING")

	// Strings, including a binary value.
	c.expect(simple("OK"), "SET", "smoke:k", "hello world\r\nwith binary \x00 bytes")
	c.expect(bulk("hello world\r\nwith binary \x00 bytes"), "GET", "smoke:k")
	c.expect(integer(1), "DEL", "smoke:k")
	c.expect(nullBulk(), "GET", "smoke:k")

	// Multi-key atomic write, snapshot read.
	c.expect(simple("OK"), "MSET", "smoke:a", "1", "smoke:b", "2")
	got, err := c.do("MGET", "smoke:a", "smoke:b", "smoke:missing")
	if err != nil || got.Type != '*' || len(got.Array) != 3 ||
		string(got.Array[0].Bulk) != "1" || string(got.Array[1].Bulk) != "2" || !got.Array[2].Null {
		log.Fatalf("respsmoke: MGET: got %+v, err %v", got, err)
	}
	fmt.Println("respsmoke: ok [MGET smoke:a smoke:b smoke:missing]")

	// Hashes.
	c.expect(integer(2), "HSET", "smoke:h", "f1", "v1", "f2", "v2")
	c.expect(bulk("v1"), "HGET", "smoke:h", "f1")
	c.expect(integer(2), "HLEN", "smoke:h")
	c.expect(integer(1), "HDEL", "smoke:h", "f1")
	c.expect(integer(1), "HLEN", "smoke:h")

	// TTLs: a far deadline survives, EXPIRE with 0 deletes.
	c.expect(simple("OK"), "SET", "smoke:ttl", "v", "EX", "100")
	ttl, err := c.do("TTL", "smoke:ttl")
	if err != nil || ttl.Type != ':' || ttl.Int <= 0 || ttl.Int > 100 {
		log.Fatalf("respsmoke: TTL: got %+v, err %v", ttl, err)
	}
	fmt.Println("respsmoke: ok [TTL smoke:ttl]")
	c.expect(integer(1), "PERSIST", "smoke:ttl")
	c.expect(integer(-1), "TTL", "smoke:ttl")
	c.expect(integer(1), "EXPIRE", "smoke:ttl", "0")
	c.expect(nullBulk(), "GET", "smoke:ttl")

	// Cleanup and goodbye.
	c.expect(integer(2), "MDEL", "smoke:a", "smoke:b")
	c.expect(integer(1), "DEL", "smoke:h")
	c.expect(simple("OK"), "QUIT")

	fmt.Println("respsmoke: PASS")
}
