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

// TestSoakRESPMixedCrash drives two kinds of client against the same
// server concurrently — pipelined batches of binary values, hashes and
// far-future TTLs, and request-per-reply plain SET/DEL — then crashes the
// device under a reproducible keep/drop policy mid-test and reincarnates
// the stack. Every acknowledged write from either kind must survive, byte
// for byte. Run with -race this shakes the shared engine: every session
// dispatches into one registry, one batch partitioner, one store.
func TestSoakRESPMixedCrash(t *testing.T) {
	waves, pairs, ops := 2, 2, 40
	if testing.Short() {
		ops = 15
	}
	clients := 2 * pairs // half plain, half pipelined
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

	plainExpect := map[string]string{} // acknowledged plain-client state
	respExpect := respSoakModel{strs: map[string][]byte{}, hashes: map[string]map[string]string{}}

	srv, addr := serve()
	for wave := 0; wave < waves; wave++ {
		plainModels := make([]map[string]string, pairs)
		respModels := make([]respSoakModel, pairs)
		var wg sync.WaitGroup
		errs := make(chan error, clients)

		// Plain clients: one text SET or DEL per round trip.
		for ci := 0; ci < pairs; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				model := map[string]string{}
				plainModels[ci] = model
				c, err := respConnect(addr)
				if err != nil {
					errs <- err
					return
				}
				defer c.conn.Close()
				rng := rand.New(rand.NewSource(int64(wave*100 + ci)))
				for j := 0; j < ops; j++ {
					key := fmt.Sprintf("lw%dc%dk%d", wave, ci, rng.Intn(8))
					if rng.Intn(4) == 0 {
						if err := c.expect([]string{"DEL", key}, ":1", ":0"); err != nil {
							errs <- fmt.Errorf("plain client: %w", err)
							return
						}
						delete(model, key)
					} else {
						val := fmt.Sprintf("tv%d.%d.%d", wave, ci, j)
						if err := c.expect([]string{"SET", key, val}, "+OK"); err != nil {
							errs <- fmt.Errorf("plain client: %w", err)
							return
						}
						model[key] = val
					}
				}
			}(ci)
		}

		// Pipelined clients: batches of binary-valued SETs, hash
		// writes, deletes, and far-future TTL stamps (far enough that the
		// wall clock never crosses them inside a test run, so the model
		// stays exact).
		for ci := 0; ci < pairs; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				model := respSoakModel{strs: map[string][]byte{}, hashes: map[string]map[string]string{}}
				respModels[ci] = model
				c, err := respConnect(addr)
				if err != nil {
					errs <- err
					return
				}
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
		// Keyspaces are disjoint per (client kind, wave, client): each model
		// is authoritative for its own keys.
		for ci := 0; ci < pairs; ci++ {
			for n := 0; n < 8; n++ {
				k := fmt.Sprintf("lw%dc%dk%d", wave, ci, n)
				if v, ok := plainModels[ci][k]; ok {
					plainExpect[k] = v
				} else {
					delete(plainExpect, k)
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
		srv, addr = serve()

		rc := respDial(t, addr)
		for k, v := range plainExpect {
			if got, ok := rc.bulk(t, "GET", k); !ok || string(got) != v {
				t.Fatalf("after crash %d: GET %s = %q (present=%v), want %q", wave, k, got, ok, v)
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
		total := len(plainExpect) + len(respExpect.strs) + len(respExpect.hashes)
		if got := rc.integer(t, "COUNT"); got != int64(total) {
			t.Fatalf("after crash %d: COUNT %d, want %d acked keys", wave, got, total)
		}
		rc.conn.Close()
	}
	srv.Close()
	if got := pm.TM().LiveThreads(); got != 0 {
		t.Fatalf("live threads after all sessions closed = %d, want 0", got)
	}
}
