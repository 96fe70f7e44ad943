package kvserve

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scm"
)

// TestSoakCrashRecover drives waves of concurrent network clients against
// the server, then crashes the device under a reproducible random
// keep/drop policy mid-run and reincarnates the stack — repeatedly. Every
// write a client saw acknowledged must survive every crash: each client
// owns a private key space, so the expected store is the exact union of
// the per-client acknowledged models. Run with -race, this also shakes
// concurrent sessions, async truncation and the shutdown paths.
func TestSoakCrashRecover(t *testing.T) {
	waves, clients, ops := 3, 4, 60
	if testing.Short() {
		waves, ops = 2, 20
	}
	cfg := core.Config{
		Dir:             t.TempDir(),
		DeviceSize:      64 << 20,
		Threads:         clients + 1,
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

	expect := map[string]string{} // acknowledged store image
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
				for j := 0; j < ops; j++ {
					key := fmt.Sprintf("w%dc%dk%d", wave, ci, rng.Intn(10))
					if rng.Intn(4) == 0 {
						if err := c.expect([]string{"DEL", key}, ":1", ":0"); err != nil {
							errs <- err
							return
						}
						delete(model, key)
					} else {
						val := fmt.Sprintf("v%d.%d.%d", wave, ci, j)
						if err := c.expect([]string{"SET", key, val}, "+OK"); err != nil {
							errs <- err
							return
						}
						model[key] = val
					}
				}
			}(ci)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		// Key spaces are disjoint per (wave, client), so each client's
		// model is authoritative for its own keys: present means the
		// acked value, absent means acked-deleted.
		for ci, model := range models {
			for n := 0; n < 10; n++ {
				k := fmt.Sprintf("w%dc%dk%d", wave, ci, n)
				if v, ok := model[k]; ok {
					expect[k] = v
				} else {
					delete(expect, k)
				}
			}
		}

		// Power failure: stop cleanly above the device (sessions drained,
		// background truncation halted), then lose a random subset of all
		// unpersisted state and reincarnate everything.
		srv.Close()
		pm.TM().StopTruncation()
		dev.Crash(scm.NewRandomPolicy(int64(1000 + wave)))
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
}

// TestSoakConnectionChurn hammers the thread-leasing path: more workers
// than transaction threads, each repeatedly connecting, writing, and
// disconnecting, so slots are leased, queued for, and recycled
// concurrently — with a device crash and reattach between the two churn
// phases. Every acknowledged write from either phase must survive, and
// no connection may ever be refused for lack of a slot. Run with -race
// this doubles as the leasing layer's data-race check.
func TestSoakConnectionChurn(t *testing.T) {
	workers, rounds, ops := 8, 6, 5
	if testing.Short() {
		rounds = 3
	}
	cfg := core.Config{
		Dir:             t.TempDir(),
		DeviceSize:      64 << 20,
		Threads:         4, // deliberately half the worker count
		AsyncTruncation: true,
		LeaseTimeout:    30 * time.Second,
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
	for phase := 0; phase < 2; phase++ {
		models := make([]map[string]string, workers)
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				model := map[string]string{}
				models[wi] = model
				for r := 0; r < rounds; r++ {
					// Fresh connection every round: this is the churn —
					// each iteration leases a slot some other worker just
					// released.
					c, err := respConnect(addr)
					if err != nil {
						errs <- fmt.Errorf("worker %d round %d: %w", wi, r, err)
						return
					}
					for j := 0; j < ops; j++ {
						key := fmt.Sprintf("p%dw%dr%dk%d", phase, wi, r, j)
						val := fmt.Sprintf("v%d", j)
						if err := c.expect([]string{"SET", key, val}, "+OK"); err != nil {
							errs <- fmt.Errorf("worker %d round %d: %w", wi, r, err)
							c.conn.Close()
							return
						}
						model[key] = val
					}
					// Delete one key from this round so recycled slots see
					// delete records too.
					del := fmt.Sprintf("p%dw%dr%dk0", phase, wi, r)
					if err := c.expect([]string{"DEL", del}, ":1"); err != nil {
						errs <- fmt.Errorf("worker %d round %d: %w", wi, r, err)
						c.conn.Close()
						return
					}
					delete(model, del)
					if err := c.expect([]string{"QUIT"}, "+OK"); err != nil {
						errs <- fmt.Errorf("worker %d round %d: %w", wi, r, err)
						c.conn.Close()
						return
					}
					c.conn.Close()
				}
			}(wi)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		for _, model := range models {
			for k, v := range model {
				expect[k] = v
			}
		}

		if phase == 0 {
			// Power failure between the churn phases, then reincarnate:
			// recovery now runs over logs that many logical threads wrote
			// into the same physical slots.
			srv.Close()
			pm.TM().StopTruncation()
			dev.Crash(scm.NewRandomPolicy(4242))
			pm, err = core.Attach(dev, cfg)
			if err != nil {
				t.Fatalf("reattach after crash: %v", err)
			}
			srv, addr = serve()
		}
	}

	c := respDial(t, addr)
	for k, v := range expect {
		if got := c.text(t, "GET", k); got != "$"+v {
			t.Fatalf("GET %s = %q, want %q", k, got, "$"+v)
		}
	}
	if got := c.text(t, "COUNT"); got != fmt.Sprintf(":%d", len(expect)) {
		t.Fatalf("%s, want %d acked keys", got, len(expect))
	}
	c.conn.Close()
	srv.Close()
	if got := pm.TM().LiveThreads(); got != 0 {
		t.Fatalf("live threads after all sessions closed = %d, want 0", got)
	}
}
