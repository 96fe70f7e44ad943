package kvserve

import (
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/scm"
	"repro/internal/shard"
)

// groupSum is the wrapping (mod 2^64) sum every cross-shard MSET group
// must always total: each MSET picks random values for all but the last
// group key and sets the last to whatever makes the sum come out.
const groupSum = uint64(0xD1CEB00C0FFEE)

// groupKeys picks one key per shard for client c (probing the routing
// hash), so the client's MSET group always spans every shard.
func groupKeys(c, nShards int) []string {
	keys := make([]string, nShards)
	for sh := 0; sh < nShards; sh++ {
		for i := 0; ; i++ {
			k := fmt.Sprintf("m%dg%d", c, 100*sh+i)
			if int(shard.HashKey(k)%uint64(nShards)) == sh {
				keys[sh] = k
				break
			}
		}
	}
	return keys
}

// groupReply is MGET's reply to a group holding vals, rendered by show.
func groupReply(vals []uint64) string {
	elems := make([]string, len(vals))
	for i, v := range vals {
		elems[i] = "$" + strconv.FormatUint(v, 10)
	}
	return "*[" + strings.Join(elems, " ") + "]"
}

// TestSoakShardedMixedCrash drives concurrent pipelined clients against
// the sharded server — single-key SET/GET plus cross-shard MSET/MGET —
// across a mid-test crash of every shard device (each under its own
// reproducible random keep/drop policy) and reattach. Each client owns a
// private keyspace, with its MSET group keys disjoint from its single
// keys (a torn cross-shard MSET linearizes at recovery, so its keys must
// not double as single-key targets). Invariants, in-run and after
// recovery: every single key carries exactly its acked version
// (per-key versions only move forward), and every MSET group's values
// wrap-sum to the same constant — the cross-shard atomicity witness.
// Run with -race this also shakes the per-shard thread pools, the
// cross-shard intent protocol, and concurrent per-shard views.
func TestSoakShardedMixedCrash(t *testing.T) {
	const nShards = 3
	clients, batches, perBatch := 4, 6, 8
	if testing.Short() {
		batches, perBatch = 3, 5
	}
	cfg := shard.Config{
		Config: core.Config{
			Dir:             t.TempDir(),
			DeviceSize:      32 << 20,
			Threads:         clients + 2,
			AsyncTruncation: true,
		},
		Shards: nShards,
	}
	st, err := shard.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	devs := st.Devices()

	serve := func() (*Server, string) {
		t.Helper()
		srv, err := NewSharded(st)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.ServeRESP(l)
		return srv, l.Addr().String()
	}

	// Acked state, owned by each client goroutine during a wave and read
	// by the main goroutine only after wg.Wait.
	const singles = 6
	vers := make([]map[string]int, clients) // single key -> acked version
	groups := make([][]string, clients)     // group key names
	groupVals := make([][]uint64, clients)  // last acked group values (nil: none)
	for c := 0; c < clients; c++ {
		vers[c] = map[string]int{}
		groups[c] = groupKeys(c, nShards)
	}

	srv, addr := serve()
	for wave := 0; wave < 2; wave++ {
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				conn, err := respConnect(addr)
				if err != nil {
					errs <- err
					return
				}
				defer conn.conn.Close()
				rng := rand.New(rand.NewSource(int64(1000*wave + c)))
				g := groups[c]
				for b := 0; b < batches; b++ {
					// Build one pipelined batch: interleaved single-key
					// SET/GET and cross-shard MSET/MGET, with the expected
					// reply for every command.
					var cmds [][]string
					var want []string
					for j := 0; j < perBatch; j++ {
						if rng.Intn(3) == 0 {
							// Cross-shard MSET then MGET of the group.
							vals := make([]uint64, len(g))
							var sum uint64
							mset := []string{"MSET"}
							for i := range g {
								if i < len(g)-1 {
									vals[i] = rng.Uint64()
								} else {
									vals[i] = groupSum - sum
								}
								sum += vals[i]
								mset = append(mset, g[i], strconv.FormatUint(vals[i], 10))
							}
							cmds = append(cmds, mset, append([]string{"MGET"}, g...))
							want = append(want, "+OK", groupReply(vals))
							groupVals[c] = vals
						} else {
							key := fmt.Sprintf("s%dk%d", c, rng.Intn(singles))
							ver := vers[c][key] + 1
							vers[c][key] = ver
							val := fmt.Sprintf("v%d", ver)
							cmds = append(cmds, []string{"SET", key, val}, []string{"GET", key})
							want = append(want, "+OK", "$"+val)
						}
					}
					replies, err := sendBatch(conn, cmds, len(want))
					if err != nil {
						errs <- fmt.Errorf("client %d wave %d batch %d: %w", c, wave, b, err)
						return
					}
					for i := range want {
						if replies[i] != want[i] {
							errs <- fmt.Errorf("client %d wave %d batch %d: reply %d: got %q, want %q",
								c, wave, b, i, replies[i], want[i])
							return
						}
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		if wave == 0 {
			// Mid-test power failure: drain sessions, then every shard
			// device loses its own random subset of unpersisted state, and
			// the whole store reincarnates (concurrent per-shard recovery).
			srv.Close()
			st.StopTruncation()
			for k, d := range devs {
				d.Crash(scm.NewRandomPolicy(int64(7700 + k)))
			}
			if st, err = shard.Attach(devs, cfg); err != nil {
				t.Fatalf("reattach after crash: %v", err)
			}
			srv, addr = serve()
		}

		// Between waves and at the end: every acked single-key version and
		// every group's acked values (wrap-summing to the constant) must be
		// intact — on a fresh connection, against the recovered image.
		conn := respDial(t, addr)
		for c := 0; c < clients; c++ {
			for key, ver := range vers[c] {
				wantV := fmt.Sprintf("$v%d", ver)
				if got := conn.text(t, "GET", key); got != wantV {
					t.Fatalf("wave %d: GET %s = %q, want %q (version regressed or write lost)",
						wave, key, got, wantV)
				}
			}
			if vals := groupVals[c]; vals != nil {
				g := groups[c]
				if got, want := conn.text(t, append([]string{"MGET"}, g...)...), groupReply(vals); got != want {
					t.Fatalf("wave %d: group %v = %q, want %q", wave, g, got, want)
				}
				var sum uint64
				for _, v := range vals {
					sum += v
				}
				if sum != groupSum {
					t.Fatalf("wave %d: client %d group wrap-sum = %#x, want %#x", wave, c, sum, groupSum)
				}
			}
		}
		conn.conn.Close()
	}
	srv.Close()
	st.Close()
}
