package kvserve

import (
	"strings"

	"repro/internal/telemetry"
)

// cmdDef is one registry entry: the verb's arity contract, whether the
// pipeline partitioner may run it concurrently, and its handler.
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
	usage    string
	// handler renders the command's reply, as RESP, into c.w.
	handler func(c *call)
	calls   *telemetry.Counter
}

// registry maps upper-cased verbs to their definitions.
var registry = map[string]*cmdDef{}

func register(d *cmdDef) *cmdDef {
	d.calls = telemetry.NewCounter(
		"kvserve_cmd_"+strings.ToLower(d.name)+"_total",
		"Invocations of the "+d.name+" command.")
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
	ok := func(c *call) { c.w.WriteSimple("OK") }
	emptyArray := func(c *call) { c.w.WriteArrayHeader(0) }

	register(&cmdDef{
		name: "PING", arity: -1, usage: "PING [<message>]",
		handler: func(c *call) {
			if len(c.args) >= 2 {
				c.w.WriteBulk(c.args[1])
			} else {
				c.w.WriteSimple("PONG")
			}
		},
	})
	register(&cmdDef{
		name: "QUIT", arity: -1, usage: "QUIT",
		handler: func(c *call) { c.quit = true; ok(c) },
	})
	register(&cmdDef{
		name: "ECHO", arity: 2, usage: "ECHO <message>",
		handler: func(c *call) { c.w.WriteBulk(c.args[1]) },
	})
	// SELECT/COMMAND/CONFIG are compatibility no-ops so stock redis
	// clients (redis-cli, redis-benchmark) can open a session.
	register(&cmdDef{
		name: "SELECT", arity: 2, usage: "SELECT <db>", handler: ok,
	})
	register(&cmdDef{
		name: "COMMAND", arity: -1, usage: "COMMAND [<subcommand>]",
		handler: emptyArray,
	})
	register(&cmdDef{
		name: "CONFIG", arity: -2, usage: "CONFIG <subcommand> [...]",
		handler: emptyArray,
	})

	register(&cmdDef{
		name: "SET", arity: -3, keyed: true,
		usage:   "SET <key> <value> [EX <seconds> | PX <milliseconds>]",
		handler: cmdSet,
	})
	register(&cmdDef{
		name: "GET", arity: 2, keyed: true, usage: "GET <key>",
		handler: cmdGet,
	})
	register(&cmdDef{
		name: "DEL", arity: -2, keyed: true, keyedMax: 2,
		usage:   "DEL <key> [<key> ...]",
		handler: cmdDel,
	})
	register(&cmdDef{
		name: "MGET", arity: -2, usage: "MGET <key> [<key> ...]",
		handler: cmdMGet,
	})
	register(&cmdDef{
		name: "MSET", arity: -3,
		usage:   "MSET <key> <value> [<key> <value> ...]",
		handler: cmdMSet,
	})
	register(&cmdDef{
		name: "MDEL", arity: -2,
		usage:   "MDEL <key> [<key> ...]",
		handler: cmdDel,
	})
	register(&cmdDef{
		name: "COUNT", arity: 1, usage: "COUNT",
		handler: cmdCount,
	})
	register(&cmdDef{
		name: "DBSIZE", arity: 1, usage: "DBSIZE",
		handler: cmdCount,
	})
	register(&cmdDef{
		name: "STATS", arity: 1, usage: "STATS",
		handler: func(c *call) { c.w.WriteBulkString(c.s.store.StatsLine()) },
	})

	register(&cmdDef{
		name: "HSET", arity: -4, keyed: true,
		usage:   "HSET <key> <field> <value> [<field> <value> ...]",
		handler: cmdHSet,
	})
	register(&cmdDef{
		name: "HGET", arity: 3, keyed: true, usage: "HGET <key> <field>",
		handler: cmdHGet,
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
