package bench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/mtm"
	"repro/internal/pds"
	"repro/internal/telemetry"
)

// Read-mostly experiment: the slot-free snapshot-read path (TM.View)
// against the leased-Atomic baseline on a 95/5 GET/SET mix over a
// persistent B+ tree. The baseline pays a thread lease for every
// operation, so at high concurrency readers queue on the Slots bound;
// View readers take no lease and no fence, so only the 5% writes touch
// the slot pool.

// ReadMostlyOpts configures the experiment.
type ReadMostlyOpts struct {
	Options
	// Mode is "atomic" (every op on a leased thread) or "view" (reads on
	// snapshot Views, writes on leased threads). RunReadMostly sweeps
	// both; RunReadMostlyCell runs one.
	Mode string
	// Goroutines is the number of concurrent clients (one cell).
	Goroutines int
	// GoroutineSweep is the concurrency ladder (default 1, 8, 32, 128).
	GoroutineSweep []int
	// OpsPerG is operations per goroutine (default 2000).
	OpsPerG int
	// Keys is the working set (default 512, pre-seeded).
	Keys int
	// ReadPct is the GET percentage (default 95).
	ReadPct int
	// ValueSize is the stored value length (default 32).
	ValueSize int
}

func (o *ReadMostlyOpts) fill() {
	if len(o.GoroutineSweep) == 0 {
		o.GoroutineSweep = []int{1, 8, 32, 128}
	}
	if o.OpsPerG == 0 {
		o.OpsPerG = 2000
	}
	if o.Keys == 0 {
		o.Keys = 512
	}
	if o.ReadPct == 0 {
		o.ReadPct = 95
	}
	if o.ValueSize == 0 {
		o.ValueSize = 32
	}
}

// ReadMostlyRow is one (mode, goroutines) measurement.
type ReadMostlyRow struct {
	Mode       string
	Goroutines int
	OpsPerSec  float64
	// FencesPerOp is durability fences per operation: the baseline fences
	// on every read's (empty) commit infrastructure only when it writes,
	// but still serializes on leases; View reads contribute zero.
	FencesPerOp float64
	// LeasesPerOp is thread leases per operation — 1.0 for the baseline,
	// ~0.05 for the view mode.
	LeasesPerOp float64
}

func (r ReadMostlyRow) String() string {
	return fmt.Sprintf("%-8s %3d goroutines: %9.0f ops/s, %5.2f fences/op, %5.2f leases/op",
		r.Mode, r.Goroutines, r.OpsPerSec, r.FencesPerOp, r.LeasesPerOp)
}

// RunReadMostly sweeps both modes over the goroutine ladder.
func RunReadMostly(o ReadMostlyOpts) ([]ReadMostlyRow, error) {
	o.fill()
	var rows []ReadMostlyRow
	for _, mode := range []string{"atomic", "view"} {
		for _, g := range o.GoroutineSweep {
			cell := o
			cell.Mode = mode
			cell.Goroutines = g
			row, err := RunReadMostlyCell(cell)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RunReadMostlyCell measures one (mode, goroutines) cell on a fresh stack.
func RunReadMostlyCell(o ReadMostlyOpts) (ReadMostlyRow, error) {
	o.fill()
	if o.Goroutines == 0 {
		o.Goroutines = 8
	}
	switch o.Mode {
	case "atomic", "view":
	default:
		return ReadMostlyRow{}, fmt.Errorf("readmostly: unknown mode %q", o.Mode)
	}
	env, err := NewEnv(o.Options)
	if err != nil {
		return ReadMostlyRow{}, err
	}
	defer env.Close()

	root, err := env.Root("readmostly.root")
	if err != nil {
		return ReadMostlyRow{}, err
	}
	tree := pds.NewBPTree(root)
	value := bytes.Repeat([]byte{'v'}, o.ValueSize)

	// Pre-seed the working set so every GET hits.
	seeder, err := env.TM.NewThread()
	if err != nil {
		return ReadMostlyRow{}, err
	}
	for k := 0; k < o.Keys; {
		end := k + 64
		if end > o.Keys {
			end = o.Keys
		}
		start := k
		err := seeder.Atomic(func(tx *mtm.Tx) error {
			for i := start; i < end; i++ {
				if err := tree.Put(tx, uint64(i), value); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return ReadMostlyRow{}, err
		}
		k = end
	}
	seeder.Close()

	leaseCounter := telemetry.Default.Counter("mtm_thread_leases_total", "")
	startFences := env.Dev.Snapshot().Fences
	startLeases := leaseCounter.Value()

	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, o.Goroutines)
	for g := 0; g < o.Goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)*7919 + 1))
			for n := 0; n < o.OpsPerG; n++ {
				key := uint64(rng.Intn(o.Keys))
				isRead := rng.Intn(100) < o.ReadPct
				var err error
				if isRead && o.Mode == "view" {
					err = env.TM.View(func(r *mtm.ReadTx) error {
						_, err := tree.Get(r, key)
						return err
					})
				} else {
					var th *mtm.Thread
					if th, err = env.TM.Lease(context.Background()); err == nil {
						if isRead {
							err = th.Atomic(func(tx *mtm.Tx) error {
								_, err := tree.Get(tx, key)
								return err
							})
						} else {
							err = th.Atomic(func(tx *mtm.Tx) error {
								return tree.Put(tx, key, value)
							})
						}
						th.Close()
					}
				}
				if err != nil {
					errc <- fmt.Errorf("goroutine %d op %d: %w", g, n, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errc:
		return ReadMostlyRow{}, err
	default:
	}

	env.TM.Drain()
	ops := float64(o.Goroutines * o.OpsPerG)
	return ReadMostlyRow{
		Mode:        o.Mode,
		Goroutines:  o.Goroutines,
		OpsPerSec:   ops / elapsed.Seconds(),
		FencesPerOp: float64(env.Dev.Snapshot().Fences-startFences) / ops,
		LeasesPerOp: float64(leaseCounter.Value()-startLeases) / ops,
	}, nil
}
