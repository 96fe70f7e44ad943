package kvserve

import (
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/resp"
)

// FuzzKVProtocol throws arbitrary inline command lines at the engine, the
// way a session meets them: line+"\r\n" through resp.Reader.ReadCommand,
// then resolve and call.run. The reader must either frame a command or
// fail with a protocol error (or an end of input the line stops inside);
// a framed command must be answered with exactly one well-formed reply —
// never a panic, never a wedged engine — and PING must still answer PONG
// afterwards. The persistent stack underneath is real, so fuzzed SETs
// exercise the transaction and allocation paths with hostile keys and
// values too.
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
		args, err := resp.NewReader(strings.NewReader(line + "\r\n")).ReadCommand()
		switch {
		case err == nil:
			c := call{s: s, w: new(resp.Writer)}
			cmd := s.resolve(args)
			c.run(&cmd)
			if _, n, err := resp.ParseValue(c.w.Bytes()); err != nil || n == 0 || n != c.w.Len() {
				t.Fatalf("%q answered %q: not exactly one reply (%v)", line, c.w.Bytes(), err)
			}
		case !resp.IsProtocol(err) && err != io.EOF && err != io.ErrUnexpectedEOF:
			t.Fatalf("%q: reader failed with %v", line, err)
		}
		if got := show(s.do("PING")); got != "+PONG" {
			t.Fatalf("server wedged after %q: PING answered %q", line, got)
		}
	})
}
