package kvserve

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// FuzzKVProtocol throws arbitrary wire lines at the command handler. The
// server must answer every line with exactly one reply line — never
// panicking, never wedging the session — and still serve a well-formed
// command afterwards. The persistent stack underneath is real, so fuzzed
// SETs exercise the transaction and allocation paths with hostile keys
// and values too.
func FuzzKVProtocol(f *testing.F) {
	pm, err := core.Open(core.Config{DeviceSize: 16 << 20, Threads: 2, Dir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(pm)
	if err != nil {
		f.Fatal(err)
	}

	f.Add("SET key value")
	f.Add("GET key")
	f.Add("DEL key")
	f.Add("COUNT")
	f.Add("PING")
	f.Add("STATS")
	f.Add("QUIT")
	f.Add("")
	f.Add("   ")
	f.Add("set lower case")
	f.Add("SET")
	f.Add("GET a b c")
	f.Add("SET \x00\xff b")
	f.Add("SET k " + strings.Repeat("v", 4096))
	f.Add("UNKNOWN command here")

	f.Fuzz(func(t *testing.T, line string) {
		reply := s.handle(line, 0)
		if reply == "" {
			t.Fatalf("empty reply to %q", line)
		}
		// MGET is the one command whose reply spans lines: exactly one
		// per requested key. Everything else answers a single line.
		if fields := strings.Fields(line); len(fields) > 1 && strings.ToUpper(fields[0]) == "MGET" {
			if !strings.HasPrefix(reply, "ERROR") && strings.Count(reply, "\n") != len(fields)-2 {
				t.Fatalf("MGET %d keys answered %d lines: %q", len(fields)-1, strings.Count(reply, "\n")+1, reply)
			}
		} else if strings.ContainsAny(reply, "\n\r") {
			t.Fatalf("multi-line reply to %q: %q", line, reply)
		}
		if got := s.handle("PING", 0); got != "PONG" {
			t.Fatalf("server wedged after %q: PING answered %q", line, got)
		}
	})
}
