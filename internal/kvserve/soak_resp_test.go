package kvserve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/scm"
)

// respSoakModel is one RESP client's acknowledged state: binary string
// values and hash field maps, over a private keyspace.
type respSoakModel struct {
	strs   map[string][]byte
	hashes map[string]map[string]string
}

// TestSoakRESPMixedCrash drives line-protocol and RESP clients against
// the same server concurrently — binary values, hashes, and far-future
// TTLs over RESP, classic text commands over the line protocol — then
// crashes the device under a reproducible keep/drop policy mid-test and
// reincarnates the stack. Every acknowledged write from either transport
// must survive, byte for byte. Run with -race this shakes the shared
// engine: both transports dispatch into one registry, one batch
// partitioner, one store.
func TestSoakRESPMixedCrash(t *testing.T) {
	waves, pairs, ops := 2, 2, 40
	if testing.Short() {
		ops = 15
	}
	clients := 2 * pairs // half line, half RESP
	cfg := core.Config{
		Dir:             t.TempDir(),
		DeviceSize:      64 << 20,
		Threads:         clients + 2,
		AsyncTruncation: true,
	}
	pm, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := pm.Device()

	serve := func() (*Server, string, string) {
		t.Helper()
		srv, err := New(pm)
		if err != nil {
			t.Fatal(err)
		}
		ll, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		rl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ll)
		go srv.ServeRESP(rl)
		return srv, ll.Addr().String(), rl.Addr().String()
	}

	lineExpect := map[string]string{} // acknowledged line-client state
	respExpect := respSoakModel{strs: map[string][]byte{}, hashes: map[string]map[string]string{}}

	srv, lineAddr, respAddr := serve()
	for wave := 0; wave < waves; wave++ {
		lineModels := make([]map[string]string, pairs)
		respModels := make([]respSoakModel, pairs)
		var wg sync.WaitGroup
		errs := make(chan error, clients)

		// Line clients: the legacy text protocol, untouched by the redesign.
		for ci := 0; ci < pairs; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				model := map[string]string{}
				lineModels[ci] = model
				c := dial(t, lineAddr)
				defer c.conn.Close()
				rng := rand.New(rand.NewSource(int64(wave*100 + ci)))
				for j := 0; j < ops; j++ {
					key := fmt.Sprintf("lw%dc%dk%d", wave, ci, rng.Intn(8))
					if rng.Intn(4) == 0 {
						reply := c.cmd(t, "DEL "+key)
						if reply != "OK" && reply != "MISSING" {
							errs <- fmt.Errorf("line DEL %s: %s", key, reply)
							return
						}
						delete(model, key)
					} else {
						val := fmt.Sprintf("tv%d.%d.%d", wave, ci, j)
						if reply := c.cmd(t, "SET "+key+" "+val); reply != "OK" {
							errs <- fmt.Errorf("line SET %s: %s", key, reply)
							return
						}
						model[key] = val
					}
				}
			}(ci)
		}

		// RESP clients: pipelined batches of binary-valued SETs, hash
		// writes, deletes, and far-future TTL stamps (far enough that the
		// wall clock never crosses them inside a test run, so the model
		// stays exact).
		for ci := 0; ci < pairs; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				model := respSoakModel{strs: map[string][]byte{}, hashes: map[string]map[string]string{}}
				respModels[ci] = model
				c := respDial(t, respAddr)
				defer c.conn.Close()
				rng := rand.New(rand.NewSource(int64(wave*1000 + ci)))
				flush := func(sent int) bool {
					if err := c.w.Flush(); err != nil {
						errs <- err
						return false
					}
					for i := 0; i < sent; i++ {
						if v, err := c.r.ReadValue(); err != nil {
							errs <- fmt.Errorf("resp reply %d: %v", i, err)
							return false
						} else if v.Type == '-' {
							errs <- fmt.Errorf("resp reply %d: error %q", i, v.Str)
							return false
						}
					}
					return true
				}
				for j := 0; j < ops; j += 4 {
					// One pipelined batch of up to 4 acknowledged writes.
					sent := 0
					for b := 0; b < 4 && j+b < ops; b++ {
						switch rng.Intn(5) {
						case 0: // delete
							key := fmt.Sprintf("rw%dc%dk%d", wave, ci, rng.Intn(8))
							c.w.WriteCommandStrings("DEL", key)
							delete(model.strs, key)
						case 1: // hash write
							hkey := fmt.Sprintf("rw%dc%dh%d", wave, ci, rng.Intn(3))
							f := fmt.Sprintf("f%d", rng.Intn(4))
							v := fmt.Sprintf("hv%d.%d", wave, rng.Intn(1000))
							c.w.WriteCommandStrings("HSET", hkey, f, v)
							if model.hashes[hkey] == nil {
								model.hashes[hkey] = map[string]string{}
							}
							model.hashes[hkey][f] = v
						default: // binary-valued SET, sometimes with a far TTL
							key := fmt.Sprintf("rw%dc%dk%d", wave, ci, rng.Intn(8))
							val := []byte(fmt.Sprintf("bv%d.%d \x00binary\r\n%d", wave, ci, rng.Intn(1000)))
							args := [][]byte{[]byte("SET"), []byte(key), val}
							if rng.Intn(3) == 0 {
								args = append(args, []byte("EX"), []byte("100000"))
							}
							c.w.WriteCommand(args...)
							model.strs[key] = val
						}
						sent++
					}
					if !flush(sent) {
						return
					}
				}
			}(ci)
		}

		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		// Keyspaces are disjoint per (transport, wave, client): each model
		// is authoritative for its own keys.
		for ci := 0; ci < pairs; ci++ {
			for n := 0; n < 8; n++ {
				k := fmt.Sprintf("lw%dc%dk%d", wave, ci, n)
				if v, ok := lineModels[ci][k]; ok {
					lineExpect[k] = v
				} else {
					delete(lineExpect, k)
				}
				rk := fmt.Sprintf("rw%dc%dk%d", wave, ci, n)
				if v, ok := respModels[ci].strs[rk]; ok {
					respExpect.strs[rk] = v
				} else {
					delete(respExpect.strs, rk)
				}
			}
			for hk, fields := range respModels[ci].hashes {
				respExpect.hashes[hk] = fields
			}
		}

		// Power failure: drain sessions, halt truncation, lose a random
		// subset of unpersisted state, reincarnate the whole stack.
		srv.Close()
		pm.TM().StopTruncation()
		dev.Crash(scm.NewRandomPolicy(int64(7000 + wave)))
		pm, err = core.Attach(dev, cfg)
		if err != nil {
			t.Fatalf("reattach after crash %d: %v", wave, err)
		}
		srv, lineAddr, respAddr = serve()

		// Verify through BOTH transports: line keys over RESP too, so the
		// transports agree on every byte the other acknowledged.
		lc := dial(t, lineAddr)
		rc := respDial(t, respAddr)
		for k, v := range lineExpect {
			if got := lc.cmd(t, "GET "+k); got != "VALUE "+v {
				t.Fatalf("after crash %d: line GET %s = %q, want %q", wave, k, got, "VALUE "+v)
			}
			if got, ok := rc.bulk(t, "GET", k); !ok || string(got) != v {
				t.Fatalf("after crash %d: resp GET %s = %q (present=%v), want %q", wave, k, got, ok, v)
			}
		}
		for k, v := range respExpect.strs {
			got, ok := rc.bulk(t, "GET", k)
			if !ok || !bytes.Equal(got, v) {
				t.Fatalf("after crash %d: resp GET %s = %q (present=%v), want %q", wave, k, got, ok, v)
			}
			if ttl := rc.integer(t, "TTL", k); ttl != -1 && ttl <= 0 {
				t.Fatalf("after crash %d: TTL %s = %d, want -1 or a future deadline", wave, k, ttl)
			}
		}
		for hk, fields := range respExpect.hashes {
			if n := rc.integer(t, "HLEN", hk); n != int64(len(fields)) {
				t.Fatalf("after crash %d: HLEN %s = %d, want %d", wave, hk, n, len(fields))
			}
			for f, v := range fields {
				if got, ok := rc.bulk(t, "HGET", hk, f); !ok || string(got) != v {
					t.Fatalf("after crash %d: HGET %s %s = %q (present=%v), want %q", wave, hk, f, got, ok, v)
				}
			}
		}
		total := len(lineExpect) + len(respExpect.strs) + len(respExpect.hashes)
		if got := lc.cmd(t, "COUNT"); got != fmt.Sprintf("COUNT %d", total) {
			t.Fatalf("after crash %d: %s, want %d acked keys", wave, got, total)
		}
		lc.conn.Close()
		rc.conn.Close()
	}
	srv.Close()
	if got := pm.TM().LiveThreads(); got != 0 {
		t.Fatalf("live threads after all sessions closed = %d, want 0", got)
	}
}
