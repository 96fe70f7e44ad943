package kvserve

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
)

// TestRegistryArity pins every verb's arity contract: the registry is
// what the engine trusts before running a handler, so an entry that
// drifts breaks usage errors.
func TestRegistryArity(t *testing.T) {
	cases := []struct {
		verb string
		argc int
		ok   bool
	}{
		{"PING", 1, true}, {"PING", 2, true},
		{"ECHO", 1, false}, {"ECHO", 2, true}, {"ECHO", 3, false},
		{"QUIT", 1, true},
		{"SET", 2, false}, {"SET", 3, true}, {"SET", 5, true},
		{"GET", 1, false}, {"GET", 2, true}, {"GET", 3, false},
		{"DEL", 1, false}, {"DEL", 2, true}, {"DEL", 4, true},
		{"MGET", 1, false}, {"MGET", 2, true}, {"MGET", 9, true},
		{"MSET", 2, false}, {"MSET", 3, true}, {"MSET", 5, true},
		{"MDEL", 1, false}, {"MDEL", 2, true},
		{"COUNT", 1, true}, {"COUNT", 2, false},
		{"DBSIZE", 1, true},
		{"STATS", 1, true}, {"STATS", 2, false},
		{"HSET", 3, false}, {"HSET", 4, true}, {"HSET", 6, true},
		{"HGET", 2, false}, {"HGET", 3, true}, {"HGET", 4, false},
		{"HDEL", 2, false}, {"HDEL", 3, true}, {"HDEL", 5, true},
		{"HLEN", 2, true}, {"HLEN", 3, false},
		{"HGETALL", 2, true}, {"HGETALL", 3, false},
		{"EXPIRE", 2, false}, {"EXPIRE", 3, true}, {"EXPIRE", 4, false},
		{"PEXPIRE", 3, true},
		{"TTL", 2, true}, {"TTL", 3, false},
		{"PTTL", 2, true},
		{"PERSIST", 2, true}, {"PERSIST", 1, false},
	}
	for _, c := range cases {
		def := registry[c.verb]
		if def == nil {
			t.Fatalf("verb %s not registered", c.verb)
		}
		if got := def.arityOK(c.argc); got != c.ok {
			t.Errorf("%s with %d args: arityOK = %v, want %v", c.verb, c.argc, got, c.ok)
		}
	}
}

// TestRegistryEntries checks structural invariants of the table itself:
// names map to themselves, every entry has a handler, a usage string
// that names the verb, and a per-verb telemetry counter.
func TestRegistryEntries(t *testing.T) {
	if len(registry) < 20 {
		t.Fatalf("registry holds %d verbs, expected the full command set", len(registry))
	}
	for name, def := range registry {
		if def.name != name {
			t.Errorf("registry[%q].name = %q", name, def.name)
		}
		if name != strings.ToUpper(name) {
			t.Errorf("verb %q not upper-cased", name)
		}
		if def.handler == nil {
			t.Errorf("%s has no handler", name)
		}
		if def.usage == "" || !strings.HasPrefix(def.usage, name) {
			t.Errorf("%s usage %q does not lead with the verb", name, def.usage)
		}
		if def.calls == nil {
			t.Errorf("%s has no invocation counter", name)
		}
		if def.arity == 0 {
			t.Errorf("%s has no arity contract", name)
		}
		if def.keyedMax > 0 && !def.keyed {
			t.Errorf("%s sets keyedMax without keyed", name)
		}
	}
}

// TestClassify pins the batch partitioner's keyed/barrier
// classification — the property the pipeline scheduler builds on: keyed
// single-key commands may run concurrently hashed by key, everything
// else serializes.
func TestClassify(t *testing.T) {
	s := Server{hash: shard.HashKeyBytes}
	cases := []struct {
		line  string
		key   string
		keyed bool
	}{
		{"GET k1", "k1", true},
		{"TTL k1", "k1", true},
		{"PTTL k1", "k1", true},
		{"HGET h f", "h", true},
		{"HLEN h", "h", true},
		{"HGETALL h", "h", true},
		{"SET k1 v", "k1", true},
		{"SET k1 v EX 10", "k1", true},
		{"DEL k1", "k1", true},
		{"HSET h f v", "h", true},
		{"HDEL h f", "h", true},
		{"EXPIRE k1 5", "k1", true},
		{"PEXPIRE k1 5000", "k1", true},
		{"PERSIST k1", "k1", true},

		// Multi-key, admin, and session commands are barriers.
		{"DEL a b", "", false}, // variadic DEL exceeds keyedMax
		{"MGET a b", "", false},
		{"MSET a 1 b 2", "", false},
		{"MDEL a b", "", false},
		{"COUNT", "", false},
		{"STATS", "", false},
		{"PING", "", false},
		{"QUIT", "", false},

		// Malformed input never reaches a partition goroutine.
		{"GET", "", false},        // arity violation
		{"GET a b", "", false},    // arity violation
		{"NONSENSE k", "", false}, // unknown verb
		{"", "", false},           // empty command
		{"EXPIRE k", "", false},   // arity violation
	}
	for _, c := range cases {
		var argv [][]byte
		for _, a := range strings.Fields(c.line) {
			argv = append(argv, []byte(a))
		}
		cmd := s.resolve(argv)
		key := ""
		if cmd.keyed {
			key = string(cmd.args[1])
			if cmd.h != s.hash(cmd.args[1]) {
				t.Errorf("resolve(%q) carries hash %#x, not its key's", c.line, cmd.h)
			}
		}
		if key != c.key || cmd.keyed != c.keyed {
			t.Errorf("resolve(%q) classified (%q, %v), want (%q, %v)", c.line, key, cmd.keyed, c.key, c.keyed)
		}
	}
}

// TestVerbLookup pins the case-insensitive, allocation-free verb
// resolution: redis-cli's lower-case verbs find the same definitions.
func TestVerbLookup(t *testing.T) {
	for _, c := range []struct{ verb, want string }{
		{"SET", "SET"}, {"set", "SET"}, {"Set", "SET"}, {"sEt", "SET"},
		{"get", "GET"}, {"Get", "GET"}, {"hgetall", "HGETALL"}, {"HgetAll", "HGETALL"},
		{"pExpire", "PEXPIRE"}, {"dbsize", "DBSIZE"}, {"Quit", "QUIT"},
		{"", ""}, {"SE", ""}, {"SETT", ""}, {"s\xc5\xbft", ""}, {"GET\x00", ""},
		{"averyveryverylongverbindeed", ""},
	} {
		got := ""
		if def := lookup([]byte(c.verb)); def != nil {
			got = def.name
		}
		if got != c.want {
			t.Errorf("lookup(%q) = %q, want %q", c.verb, got, c.want)
		}
		if def := lookup(c.verb); (def == nil) != (c.want == "") {
			t.Errorf("lookup of the string %q disagrees with the bytes", c.verb)
		}
	}
	// P-prefixed verbs pick their unit from the verb as typed.
	for verb, unit := range map[string]int64{"ttl": 1e9, "PTTL": 1e6, "pttl": 1e6, "Pexpire": 1e6, "EXPIRE": 1e9} {
		c := call{args: [][]byte{[]byte(verb)}}
		if got := c.ttlUnit(); got != unit {
			t.Errorf("%s counts in units of %d ns, want %d", verb, got, unit)
		}
	}
}

// TestEchoByeKeepsSession guards the structural QUIT detection: session
// teardown keys off the handler's quit mark, so a reply that happens to
// spell a goodbye ("BYE", or "OK" like QUIT's own acknowledgment) must not
// close the connection.
func TestEchoByeKeepsSession(t *testing.T) {
	_, _, addr := startServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})
	c := respDial(t, addr)
	for _, word := range []string{"BYE", "OK"} {
		if got := c.text(t, "ECHO", word); got != "$"+word {
			t.Fatalf("ECHO %s -> %q", word, got)
		}
		if got := c.text(t, "PING"); got != "+PONG" {
			t.Fatalf("session closed after ECHO %s: PING -> %q", word, got)
		}
	}
	if got := c.text(t, "QUIT"); got != "+OK" {
		t.Fatalf("QUIT -> %q", got)
	}
	if _, err := c.r.ReadValue(); err == nil {
		t.Fatal("connection still open after QUIT")
	}
}
