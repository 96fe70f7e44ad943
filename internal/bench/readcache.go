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

// Read-cache experiment: the read-mostly View workload (95/5 GET/SET
// over a persistent B+ tree) with and without the volatile read-through
// cache in front of the emulated SCM. Loads are charged the configured
// read latency, so a cache hit — validated purely against the versioned
// transaction locks — skips both the device load and the lock recheck.
// The figures of merit are ops/s next to the hit rate the working set
// achieves.

// ReadCacheOpts configures the experiment.
type ReadCacheOpts struct {
	Options
	// GoroutineSweep is the concurrency ladder (default 1, 8).
	GoroutineSweep []int
	// OpsPerG is operations per goroutine (default 2000).
	OpsPerG int
	// Keys is the working set (default 512, pre-seeded).
	Keys int
	// ReadPct is the GET percentage (default 95).
	ReadPct int
	// ValueSize is the stored value length (default 32).
	ValueSize int
	// CacheWords sizes the cache in the "on" phase (default 1<<16).
	CacheWords int
	// ReadLatencyNs is the charged PCM read latency (default 100ns; the
	// paper's model reads free, so the experiment names its assumption).
	ReadLatencyNs int
}

func (o *ReadCacheOpts) fill() {
	if len(o.GoroutineSweep) == 0 {
		o.GoroutineSweep = []int{1, 8}
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
	if o.CacheWords == 0 {
		o.CacheWords = 1 << 16
	}
	if o.ReadLatencyNs == 0 {
		o.ReadLatencyNs = 100
	}
}

// ReadCacheRow is one (cache, goroutines) measurement.
type ReadCacheRow struct {
	Cache      string // "off" or "on"
	Goroutines int
	OpsPerSec  float64
	// HitRate is cache hits over cache lookups — 0 with the cache off.
	HitRate float64
}

func (r ReadCacheRow) String() string {
	return fmt.Sprintf("cache %-3s %3d goroutines: %9.0f ops/s, %5.1f%% hits",
		r.Cache, r.Goroutines, r.OpsPerSec, r.HitRate*100)
}

// RunReadCache sweeps cache off/on over the goroutine ladder.
func RunReadCache(o ReadCacheOpts) ([]ReadCacheRow, error) {
	o.fill()
	var rows []ReadCacheRow
	for _, cache := range []string{"off", "on"} {
		for _, g := range o.GoroutineSweep {
			row, err := RunReadCacheCell(o, cache, g)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RunReadCacheCell measures one (cache, goroutines) cell on a fresh stack.
func RunReadCacheCell(o ReadCacheOpts, cache string, goroutines int) (ReadCacheRow, error) {
	o.fill()
	opts := o.Options
	opts.ReadLatency = time.Duration(o.ReadLatencyNs) * time.Nanosecond
	if cache == "on" {
		opts.ReadCacheWords = o.CacheWords
	}
	env, err := NewEnv(opts)
	if err != nil {
		return ReadCacheRow{}, err
	}
	defer env.Close()

	root, err := env.Root("readcache.root")
	if err != nil {
		return ReadCacheRow{}, err
	}
	tree := pds.NewBPTree(root)
	value := bytes.Repeat([]byte{'v'}, o.ValueSize)

	seeder, err := env.TM.NewThread()
	if err != nil {
		return ReadCacheRow{}, err
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
			return ReadCacheRow{}, err
		}
		k = end
	}
	seeder.Close()

	hitCounter := telemetry.Default.Counter("region_readcache_hits_total", "")
	missCounter := telemetry.Default.Counter("region_readcache_misses_total", "")
	startHits, startMisses := hitCounter.Value(), missCounter.Value()

	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)*7919 + 1))
			for n := 0; n < o.OpsPerG; n++ {
				key := uint64(rng.Intn(o.Keys))
				var err error
				if rng.Intn(100) < o.ReadPct {
					err = env.TM.View(func(r *mtm.ReadTx) error {
						_, err := tree.Get(r, key)
						return err
					})
				} else {
					var th *mtm.Thread
					if th, err = env.TM.Lease(context.Background()); err == nil {
						err = th.Atomic(func(tx *mtm.Tx) error {
							return tree.Put(tx, key, value)
						})
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
		return ReadCacheRow{}, err
	default:
	}

	env.TM.Drain()
	hits := hitCounter.Value() - startHits
	misses := missCounter.Value() - startMisses
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	return ReadCacheRow{
		Cache:      cache,
		Goroutines: goroutines,
		OpsPerSec:  float64(goroutines*o.OpsPerG) / elapsed.Seconds(),
		HitRate:    rate,
	}, nil
}
