package kvserve

import (
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// replyKind enumerates the transport-independent reply shapes. The
// engine's handlers return a Reply; each transport renders it — the line
// protocol with its legacy VALUE/MISSING/DELETED vocabulary, RESP with
// simple strings, integers, bulk strings, nulls, and arrays.
type replyKind int

const (
	replySimple replyKind = iota // +OK style status
	replyError                   // -ERR style error (str carries the bare message)
	replyInt                     // :N
	replyBulk                    // $len binary-safe payload
	replyNil                     // $-1 absent value
	replyArray                   // *N of nested replies
	replyBye                     // QUIT: acknowledge, then close the session
)

// Reply is one command's transport-independent result.
type Reply struct {
	kind replyKind
	str  string
	n    int64
	bulk []byte
	arr  []Reply
}

func simpleReply(s string) Reply     { return Reply{kind: replySimple, str: s} }
func errReply(msg string) Reply      { return Reply{kind: replyError, str: msg} }
func errfReply(err error) Reply      { return Reply{kind: replyError, str: err.Error()} }
func intReply(n int64) Reply         { return Reply{kind: replyInt, n: n} }
func bulkReply(b []byte) Reply       { return Reply{kind: replyBulk, bulk: b} }
func bulkString(s string) Reply      { return Reply{kind: replyBulk, bulk: []byte(s)} }
func nilReply() Reply                { return Reply{kind: replyNil} }
func arrayReply(elems []Reply) Reply { return Reply{kind: replyArray, arr: elems} }
func byeReply() Reply                { return Reply{kind: replyBye} }

// cmdDef is one registry entry: the verb's arity contract, whether the
// pipeline partitioner may run it concurrently, how the line protocol
// tokenizes it, and its handler.
type cmdDef struct {
	name string
	// arity is redis-style, counting the verb: positive = exact argument
	// count, negative = at least -arity arguments.
	arity int
	// keyed marks single-key commands the batch partitioner may run
	// concurrently, hashed by args[1]; keyedMax (when non-zero) bounds the
	// argument count that still counts as single-key (DEL is keyed at 2
	// args, variadic DEL is a barrier). Non-keyed commands are barriers.
	keyed    bool
	keyedMax int
	// lineSplit, when non-zero, makes the line protocol tokenize with
	// SplitN(line, " ", lineSplit) instead of Fields, so the final
	// argument keeps its spaces (SET's value). RESP framing is unaffected.
	lineSplit int
	usage     string
	handler   func(c *call) Reply
	// legacy renders a non-error Reply for the line protocol; nil uses
	// the default rendering (errors always render as "ERROR <msg>").
	legacy func(args [][]byte, r Reply) string
	calls  *telemetry.Counter
}

// registry maps upper-cased verbs to their definitions. Both transports
// dispatch through it; there is no per-transport command switch.
var registry = map[string]*cmdDef{}

func register(d *cmdDef) *cmdDef {
	d.calls = telemetry.NewCounter(
		"kvserve_cmd_"+strings.ToLower(d.name)+"_total",
		"Invocations of the "+d.name+" command across all transports.")
	registry[d.name] = d
	return d
}

// arityOK checks argc (verb included) against the definition's contract.
func (d *cmdDef) arityOK(argc int) bool {
	if d.arity > 0 {
		return argc == d.arity
	}
	return argc >= -d.arity
}

func init() {
	register(&cmdDef{
		name: "PING", arity: -1, usage: "PING [<message>]",
		handler: func(c *call) Reply {
			if len(c.args) >= 2 {
				return bulkReply(append([]byte(nil), c.args[1]...))
			}
			return simpleReply("PONG")
		},
	})
	register(&cmdDef{
		name: "QUIT", arity: -1, usage: "QUIT",
		handler: func(c *call) Reply { return byeReply() },
	})
	register(&cmdDef{
		name: "ECHO", arity: 2, usage: "ECHO <message>",
		handler: func(c *call) Reply {
			return bulkReply(append([]byte(nil), c.args[1]...))
		},
	})
	// SELECT/COMMAND/CONFIG are compatibility no-ops so stock redis
	// clients (redis-cli, redis-benchmark) can open a session.
	register(&cmdDef{
		name: "SELECT", arity: 2, usage: "SELECT <db>",
		handler: func(c *call) Reply { return simpleReply("OK") },
	})
	register(&cmdDef{
		name: "COMMAND", arity: -1, usage: "COMMAND [<subcommand>]",
		handler: func(c *call) Reply { return arrayReply(nil) },
		legacy:  func(args [][]byte, r Reply) string { return "OK" },
	})
	register(&cmdDef{
		name: "CONFIG", arity: -2, usage: "CONFIG <subcommand> [...]",
		handler: func(c *call) Reply { return arrayReply(nil) },
		legacy:  func(args [][]byte, r Reply) string { return "OK" },
	})

	register(&cmdDef{
		name: "SET", arity: -3, keyed: true, lineSplit: 3,
		usage:   "SET <key> <value> [EX <seconds> | PX <milliseconds>]",
		handler: cmdSet,
	})
	register(&cmdDef{
		name: "GET", arity: 2, keyed: true, usage: "GET <key>",
		handler: cmdGet,
		legacy: func(args [][]byte, r Reply) string {
			if r.kind == replyNil {
				return "MISSING"
			}
			return "VALUE " + string(r.bulk)
		},
	})
	register(&cmdDef{
		name: "DEL", arity: -2, keyed: true, keyedMax: 2,
		usage:   "DEL <key> [<key> ...]",
		handler: cmdDel,
		legacy: func(args [][]byte, r Reply) string {
			if len(args) == 2 {
				if r.n > 0 {
					return "OK"
				}
				return "MISSING"
			}
			return "DELETED " + strconv.FormatInt(r.n, 10)
		},
	})
	register(&cmdDef{
		name: "MGET", arity: -2, usage: "MGET <key> [<key> ...]",
		handler: cmdMGet,
		legacy: func(args [][]byte, r Reply) string {
			outs := make([]string, len(r.arr))
			for i, e := range r.arr {
				if e.kind == replyNil {
					outs[i] = "MISSING"
				} else {
					outs[i] = "VALUE " + string(e.bulk)
				}
			}
			return strings.Join(outs, "\n")
		},
	})
	register(&cmdDef{
		name: "MSET", arity: -3,
		usage:   "MSET <key> <value> [<key> <value> ...]",
		handler: cmdMSet,
	})
	register(&cmdDef{
		name: "MDEL", arity: -2,
		usage:   "MDEL <key> [<key> ...]",
		handler: cmdMDel,
		legacy: func(args [][]byte, r Reply) string {
			return "DELETED " + strconv.FormatInt(r.n, 10)
		},
	})
	countLegacy := func(args [][]byte, r Reply) string {
		return "COUNT " + strconv.FormatInt(r.n, 10)
	}
	register(&cmdDef{
		name: "COUNT", arity: 1, usage: "COUNT",
		handler: cmdCount, legacy: countLegacy,
	})
	register(&cmdDef{
		name: "DBSIZE", arity: 1, usage: "DBSIZE",
		handler: cmdCount, legacy: countLegacy,
	})
	register(&cmdDef{
		name: "STATS", arity: 1, usage: "STATS",
		handler: func(c *call) Reply { return bulkString(c.s.store.StatsLine()) },
	})

	register(&cmdDef{
		name: "HSET", arity: -4, keyed: true,
		usage:   "HSET <key> <field> <value> [<field> <value> ...]",
		handler: cmdHSet,
	})
	register(&cmdDef{
		name: "HGET", arity: 3, keyed: true, usage: "HGET <key> <field>",
		handler: cmdHGet,
		legacy: func(args [][]byte, r Reply) string {
			if r.kind == replyNil {
				return "MISSING"
			}
			return "VALUE " + string(r.bulk)
		},
	})
	register(&cmdDef{
		name: "HDEL", arity: -3, keyed: true,
		usage:   "HDEL <key> <field> [<field> ...]",
		handler: cmdHDel,
	})
	register(&cmdDef{
		name: "HLEN", arity: 2, keyed: true, usage: "HLEN <key>",
		handler: cmdHLen,
	})
	register(&cmdDef{
		name: "HGETALL", arity: 2, keyed: true, usage: "HGETALL <key>",
		handler: cmdHGetAll,
		legacy: func(args [][]byte, r Reply) string {
			var b strings.Builder
			b.WriteString("FIELDS")
			for _, e := range r.arr {
				b.WriteByte(' ')
				b.Write(e.bulk)
			}
			return b.String()
		},
	})

	register(&cmdDef{
		name: "EXPIRE", arity: 3, keyed: true,
		usage:   "EXPIRE <key> <seconds>",
		handler: cmdExpire,
	})
	register(&cmdDef{
		name: "PEXPIRE", arity: 3, keyed: true,
		usage:   "PEXPIRE <key> <milliseconds>",
		handler: cmdExpire,
	})
	register(&cmdDef{
		name: "TTL", arity: 2, keyed: true, usage: "TTL <key>",
		handler: cmdTTL,
	})
	register(&cmdDef{
		name: "PTTL", arity: 2, keyed: true, usage: "PTTL <key>",
		handler: cmdTTL,
	})
	register(&cmdDef{
		name: "PERSIST", arity: 2, keyed: true,
		usage:   "PERSIST <key>",
		handler: cmdPersist,
	})
}
