package kvserve

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/scm"
	"repro/internal/telemetry"
)

// sendBatch writes all commands in one network write (a pipelining
// client) and reads exactly want replies, in order, rendered by show.
func sendBatch(c *respClient, cmds [][]string, want int) ([]string, error) {
	for _, args := range cmds {
		c.w.WriteCommandStrings(args...)
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	replies := make([]string, 0, want)
	for i := 0; i < want; i++ {
		v, err := c.r.ReadValue()
		if err != nil {
			return nil, fmt.Errorf("reply %d of %d: %w (got %q so far)", i, want, err, replies)
		}
		replies = append(replies, show(v))
	}
	return replies, nil
}

func TestMSetMDel(t *testing.T) {
	_, _, addr := startServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})
	c := respDial(t, addr)
	if got := c.text(t, "MSET", "a", "1", "b", "2", "c", "3"); got != "+OK" {
		t.Fatalf("MSET -> %q", got)
	}
	for _, kv := range [][2]string{{"a", "1"}, {"b", "2"}, {"c", "3"}} {
		if got := c.text(t, "GET", kv[0]); got != "$"+kv[1] {
			t.Fatalf("GET %s -> %q", kv[0], got)
		}
	}
	if got := c.text(t, "COUNT"); got != ":3" {
		t.Fatalf("COUNT -> %q", got)
	}
	// MDEL reports how many named keys were present; missing keys are
	// skipped, not errors.
	if got := c.text(t, "MDEL", "a", "b", "nosuch"); got != ":2" {
		t.Fatalf("MDEL -> %q", got)
	}
	if got := c.text(t, "GET", "a"); got != "(nil)" {
		t.Fatalf("GET deleted -> %q", got)
	}
	if got := c.text(t, "GET", "c"); got != "$3" {
		t.Fatalf("GET survivor -> %q", got)
	}
	// Usage errors.
	if got := c.text(t, "MSET", "a"); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("odd MSET -> %q", got)
	}
	if got := c.text(t, "MSET", "a", "1", "b"); !strings.HasPrefix(got, "-ERR usage: MSET") {
		t.Fatalf("odd-argument MSET -> %q", got)
	}
	if got := c.text(t, "MDEL"); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("empty MDEL -> %q", got)
	}
	// MSET is one transaction: an oversized value rejects the whole set
	// before anything commits.
	long := strings.Repeat("x", MaxValueLen+1)
	if got := c.text(t, "MSET", "d", "4", "e", long); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("oversized MSET -> %q", got)
	}
	if got := c.text(t, "GET", "d"); got != "(nil)" {
		t.Fatalf("partial MSET leaked: GET d -> %q", got)
	}
}

// TestPipelinedReplies sends many commands in single network writes and
// checks the replies come back complete, in request order, with per-key
// command order preserved across the concurrent batch dispatch.
func TestPipelinedReplies(t *testing.T) {
	_, _, addr := startServer(t, core.Config{
		Dir: t.TempDir(), DeviceSize: 64 << 20, GroupCommit: true,
	})
	c := respDial(t, addr)

	// Same-key sequences must serialize in order even when the batch is
	// spread across worker threads: SET k v1, GET k, SET k v2, GET k.
	var cmds [][]string
	var want []string
	const keys = 6
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("pk%d", k)
		cmds = append(cmds,
			[]string{"SET", key, "first"},
			[]string{"GET", key},
			[]string{"SET", key, "second"},
			[]string{"GET", key},
		)
		want = append(want, "+OK", "$first", "+OK", "$second")
	}
	// A barrier command mid-batch still answers in position.
	cmds = append(cmds, []string{"COUNT"}, []string{"PING"})
	want = append(want, fmt.Sprintf(":%d", keys), "+PONG")
	got, err := sendBatch(c, cmds, len(want))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reply %d (%q) = %q, want %q", i, cmds[i], got[i], want[i])
		}
	}

	// Commands pipelined after QUIT are dropped unanswered and the
	// connection closes after QUIT's acknowledgment.
	c2 := respDial(t, addr)
	replies, err := sendBatch(c2, [][]string{{"SET", "q", "1"}, {"QUIT"}, {"SET", "never", "2"}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if replies[0] != "+OK" || replies[1] != "+OK" {
		t.Fatalf("QUIT batch replies = %q", replies)
	}
	if _, err := c2.r.ReadValue(); err == nil {
		t.Fatal("connection stayed open after pipelined QUIT")
	}
	c3 := respDial(t, addr)
	if got := c3.text(t, "GET", "never"); got != "(nil)" {
		t.Fatalf("command after QUIT executed: %q", got)
	}
	if got := c3.text(t, "GET", "q"); got != "$1" {
		t.Fatalf("command before QUIT lost: %q", got)
	}
}

// TestSoakPipelinedMixedCrash mixes pipelined and request-per-reply
// clients against one server with group commit enabled, crashes the
// device mid-test under a random keep/drop policy, reincarnates the
// stack, and verifies every acknowledged write survived. Run with -race
// this shakes the batch dispatcher's worker threads, the epoch
// coordinator, and the session shutdown paths together.
func TestSoakPipelinedMixedCrash(t *testing.T) {
	waves, clients, ops := 3, 4, 48
	if testing.Short() {
		waves, ops = 2, 16
	}
	cfg := core.Config{
		Dir:             t.TempDir(),
		DeviceSize:      64 << 20,
		Threads:         4 * clients, // sessions plus their batch workers
		AsyncTruncation: true,
		GroupCommit:     true,
	}
	pm, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := pm.Device()

	serve := func() (*Server, string) {
		t.Helper()
		srv, err := New(pm)
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

	expect := map[string]string{}
	srv, addr := serve()
	for wave := 0; wave < waves; wave++ {
		models := make([]map[string]string, clients)
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for ci := 0; ci < clients; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				model := map[string]string{}
				models[ci] = model
				c, err := respConnect(addr)
				if err != nil {
					errs <- err
					return
				}
				defer c.conn.Close()
				rng := rand.New(rand.NewSource(int64(wave*100 + ci)))
				pipelined := ci%2 == 0
				if pipelined {
					// Batches of SET/DEL commands in one write, replies
					// checked as a block; every OK is an acknowledged
					// durable write.
					for done := 0; done < ops; {
						n := 4 + rng.Intn(12)
						if n > ops-done {
							n = ops - done
						}
						var cmds [][]string
						var keys []string
						for j := 0; j < n; j++ {
							key := fmt.Sprintf("w%dc%dk%d", wave, ci, rng.Intn(10))
							if rng.Intn(4) == 0 {
								cmds = append(cmds, []string{"DEL", key})
								keys = append(keys, "-"+key)
							} else {
								val := fmt.Sprintf("v%d.%d.%d", wave, ci, done+j)
								cmds = append(cmds, []string{"SET", key, val})
								keys = append(keys, key+"="+val)
							}
						}
						for _, args := range cmds {
							c.w.WriteCommandStrings(args...)
						}
						if err := c.w.Flush(); err != nil {
							errs <- err
							return
						}
						for j := 0; j < n; j++ {
							v, err := c.r.ReadValue()
							if err != nil {
								errs <- err
								return
							}
							reply := show(v)
							if del, key := strings.HasPrefix(keys[j], "-"), keys[j]; del {
								if reply != ":1" && reply != ":0" {
									errs <- fmt.Errorf("client %d: %q -> %q", ci, cmds[j], reply)
									return
								}
								delete(model, key[1:])
							} else {
								if reply != "+OK" {
									errs <- fmt.Errorf("client %d: %q -> %q", ci, cmds[j], reply)
									return
								}
								k, v, _ := strings.Cut(key, "=")
								model[k] = v
							}
						}
						done += n
					}
				} else {
					// Request-per-reply client on the same server, with
					// occasional multi-key transactions.
					for j := 0; j < ops; j++ {
						key := fmt.Sprintf("w%dc%dk%d", wave, ci, rng.Intn(10))
						switch rng.Intn(5) {
						case 0:
							if err := c.expect([]string{"DEL", key}, ":1", ":0"); err != nil {
								errs <- err
								return
							}
							delete(model, key)
						case 1:
							k2 := fmt.Sprintf("w%dc%dk%d", wave, ci, rng.Intn(10))
							v := fmt.Sprintf("m%d.%d.%d", wave, ci, j)
							if k2 == key {
								k2 = key + "x"
							}
							if err := c.expect([]string{"MSET", key, v, k2, v}, "+OK"); err != nil {
								errs <- err
								return
							}
							model[key], model[k2] = v, v
						default:
							val := fmt.Sprintf("v%d.%d.%d", wave, ci, j)
							if err := c.expect([]string{"SET", key, val}, "+OK"); err != nil {
								errs <- err
								return
							}
							model[key] = val
						}
					}
				}
			}(ci)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		// Per-(wave,client) key spaces are disjoint, so each model is
		// authoritative for its own keys.
		for ci, model := range models {
			prefix := fmt.Sprintf("w%dc%d", wave, ci)
			for k := range expect {
				if strings.HasPrefix(k, prefix) {
					delete(expect, k)
				}
			}
			for k, v := range model {
				expect[k] = v
			}
		}

		// Power failure mid-test, then reincarnate the whole stack.
		srv.Close()
		pm.TM().StopTruncation()
		dev.Crash(scm.NewRandomPolicy(int64(7000 + wave)))
		pm, err = core.Attach(dev, cfg)
		if err != nil {
			t.Fatalf("reattach after crash %d: %v", wave, err)
		}
		srv, addr = serve()

		c := respDial(t, addr)
		for k, v := range expect {
			if got := c.text(t, "GET", k); got != "$"+v {
				t.Fatalf("after crash %d: GET %s = %q, want %q", wave, k, got, "$"+v)
			}
		}
		if got := c.text(t, "COUNT"); got != fmt.Sprintf(":%d", len(expect)) {
			t.Fatalf("after crash %d: %s, want %d acked keys", wave, got, len(expect))
		}
		c.conn.Close()
	}
	srv.Close()
	if got := pm.TM().LiveThreads(); got != 0 {
		t.Fatalf("live threads after all sessions closed = %d, want 0 (leaked batch workers?)", got)
	}
}

// BenchmarkKVPipelined compares 8 request-per-reply clients against 8
// pipelining clients on the same server with group commit enabled. The
// pipelined mode must beat serial by >=2x ops/sec with fences/commit
// below 1.0 (the issue's acceptance bar); fences/commit is reported from
// the device counters.
func BenchmarkKVPipelined(b *testing.B) {
	const clients = 8
	const window = 32 // pipelined requests in flight per client
	for _, mode := range []string{"serial", "pipelined"} {
		b.Run(mode, func(b *testing.B) {
			pm, err := core.Open(core.Config{
				Dir:             b.TempDir(),
				DeviceSize:      256 << 20,
				Threads:         6 * clients,
				EmulateLatency:  true,
				AsyncTruncation: true,
				GroupCommit:     true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer pm.Close()
			srv, err := New(pm)
			if err != nil {
				b.Fatal(err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.ServeRESP(l)
			defer srv.Close()

			conns := make([]*respClient, clients)
			for i := range conns {
				c, err := respConnect(l.Addr().String())
				if err != nil {
					b.Fatal(err)
				}
				defer c.conn.Close()
				conns[i] = c
			}

			startReg := telemetry.Default.Snapshot()
			startFences := pm.Device().Snapshot().Fences
			startCommits := pm.TM().Snapshot().Commits
			b.ResetTimer()
			var wg sync.WaitGroup
			fail := make(chan error, clients)
			for ci := 0; ci < clients; ci++ {
				share := b.N / clients
				if ci < b.N%clients {
					share++
				}
				if share == 0 {
					continue
				}
				wg.Add(1)
				go func(ci, share int) {
					defer wg.Done()
					c := conns[ci]
					if mode == "serial" {
						for j := 0; j < share; j++ {
							v, err := c.send("SET", fmt.Sprintf("b%dk%d", ci, j%64), fmt.Sprintf("v%d", j))
							if reply := show(v); err != nil || reply != "+OK" {
								fail <- fmt.Errorf("client %d: %q %v", ci, reply, err)
								return
							}
						}
						return
					}
					for done := 0; done < share; {
						n := window
						if n > share-done {
							n = share - done
						}
						for j := 0; j < n; j++ {
							c.w.WriteCommandStrings("SET", fmt.Sprintf("b%dk%d", ci, (done+j)%64), fmt.Sprintf("v%d", done+j))
						}
						if err := c.w.Flush(); err != nil {
							fail <- err
							return
						}
						for j := 0; j < n; j++ {
							v, err := c.r.ReadValue()
							if reply := show(v); err != nil || reply != "+OK" {
								fail <- fmt.Errorf("client %d: %q %v", ci, reply, err)
								return
							}
						}
						done += n
					}
				}(ci, share)
			}
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-fail:
				b.Fatal(err)
			default:
			}
			pm.TM().Drain()
			reg := telemetry.Default.Snapshot()
			fences := pm.Device().Snapshot().Fences - startFences
			commits := pm.TM().Snapshot().Commits - startCommits
			epochs := reg["mtm_group_commit_epochs_total"] - startReg["mtm_group_commit_epochs_total"]
			leaderFences := reg["mtm_group_commit_fences_total"] - startReg["mtm_group_commit_fences_total"]
			if commits > 0 {
				// Commit-path durability fences per transaction — the
				// amortization group commit buys. Device fences also count
				// the heap allocator's internal metadata fences inside each
				// B+tree Put, which no commit protocol can share; they are
				// reported separately as devfences/commit.
				b.ReportMetric(float64(leaderFences+2*epochs)/float64(commits), "fences/commit")
				b.ReportMetric(float64(fences)/float64(commits), "devfences/commit")
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
		})
	}
}
