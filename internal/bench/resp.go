package bench

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kvserve"
	"repro/internal/resp"
)

// RESP experiment: the redis-protocol serving surface end to end —
// framing, the command registry, batch partitioning, and durable
// commits — under pipelined concurrent clients. Each client keeps a
// window of commands in flight over one TCP connection: a mix of
// binary-valued SETs (some carrying EX deadlines, so the timer wheel is
// on the write path), GETs (served from snapshot Views), and hash
// writes. The row reports end-to-end operation throughput and the
// durability cost per committed transaction.

// RESPOpts configures the RESP serving benchmark.
type RESPOpts struct {
	Options
	// Clients is the number of concurrent connections (default 8).
	Clients int
	// Window is the pipelined commands in flight per client (default 32).
	Window int
	// OpsPerClient is operations per connection (default 2000).
	OpsPerClient int
	// Keys is each client's private working set (default 256).
	Keys int
	// ValueSize is the stored value length (default 64).
	ValueSize int
	// WritePct is the SET percentage of the mix (default 50; of those,
	// one in four carries a far-future EX deadline and one in eight is an
	// HSET instead).
	WritePct int
}

func (o *RESPOpts) fill() {
	if o.Clients == 0 {
		o.Clients = 8
	}
	if o.Window == 0 {
		o.Window = 32
	}
	if o.OpsPerClient == 0 {
		o.OpsPerClient = 2000
	}
	if o.Keys == 0 {
		o.Keys = 256
	}
	if o.ValueSize == 0 {
		o.ValueSize = 64
	}
	if o.WritePct == 0 {
		o.WritePct = 50
	}
}

// RESPRow is one benchmark measurement.
type RESPRow struct {
	Clients         int
	Window          int
	OpsPerSec       float64
	FencesPerCommit float64
	// AllocsPerOp is the process's Go heap allocations per served
	// operation — the server's plus this kernel's own clients', which
	// format a key and copy each reply.
	AllocsPerOp float64
}

func (r RESPRow) String() string {
	return fmt.Sprintf("%2d clients, window %2d: %9.0f ops/s, %5.2f fences/commit, %5.1f allocs/op",
		r.Clients, r.Window, r.OpsPerSec, r.FencesPerCommit, r.AllocsPerOp)
}

// RunRESP measures the RESP front end over a fresh unsharded stack.
func RunRESP(o RESPOpts) (RESPRow, error) {
	o.fill()
	o.Options.fill()
	dir, err := os.MkdirTemp("", "mnbench-resp-*")
	if err != nil {
		return RESPRow{}, err
	}
	defer os.RemoveAll(dir)
	pm, err := core.Open(core.Config{
		Dir:             dir,
		DeviceSize:      o.DeviceSize,
		EmulateLatency:  o.Spin,
		Threads:         o.Clients + 2,
		AsyncTruncation: true,
		GroupCommit:     o.GroupCommit,
	})
	if err != nil {
		return RESPRow{}, err
	}
	defer pm.Close()
	srv, err := kvserve.New(pm)
	if err != nil {
		return RESPRow{}, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return RESPRow{}, err
	}
	go srv.ServeRESP(l)
	defer srv.Close()

	value := make([]byte, o.ValueSize)
	for i := range value {
		value[i] = byte(i) // arbitrary binary payload, NULs included
	}

	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	startFences := pm.Device().Snapshot().Fences
	startCommits := pm.TM().Snapshot().Commits
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, o.Clients)
	for ci := 0; ci < o.Clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r, w := resp.NewReader(conn), resp.NewWriter(conn)
			rng := rand.New(rand.NewSource(int64(ci)))
			for done := 0; done < o.OpsPerClient; {
				n := o.Window
				if n > o.OpsPerClient-done {
					n = o.OpsPerClient - done
				}
				for j := 0; j < n; j++ {
					key := fmt.Sprintf("c%dk%d", ci, rng.Intn(o.Keys))
					switch r := rng.Intn(100); {
					case r >= o.WritePct: // read
						w.WriteCommandStrings("GET", key)
					case r%8 == 0: // hash write
						w.WriteCommand([]byte("HSET"), []byte(key+"h"),
							[]byte("field"), value)
					case r%4 == 0: // expiring write (far deadline)
						w.WriteCommand([]byte("SET"), []byte(key), value,
							[]byte("EX"), []byte("100000"))
					default:
						w.WriteCommand([]byte("SET"), []byte(key), value)
					}
				}
				if err := w.Flush(); err != nil {
					errs <- err
					return
				}
				for j := 0; j < n; j++ {
					v, err := r.ReadValue()
					if err != nil {
						errs <- err
						return
					}
					if v.Type == '-' {
						errs <- fmt.Errorf("resp bench: server error %q", v.Str)
						return
					}
				}
				done += n
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return RESPRow{}, err
	}

	runtime.ReadMemStats(&mem1)
	commits := pm.TM().Snapshot().Commits - startCommits
	fences := pm.Device().Snapshot().Fences - startFences
	ops := float64(o.Clients * o.OpsPerClient)
	row := RESPRow{
		Clients:     o.Clients,
		Window:      o.Window,
		OpsPerSec:   ops / elapsed.Seconds(),
		AllocsPerOp: float64(mem1.Mallocs-mem0.Mallocs) / ops,
	}
	if commits > 0 {
		row.FencesPerCommit = float64(fences) / float64(commits)
	}
	return row, nil
}
