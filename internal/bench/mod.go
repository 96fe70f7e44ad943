package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/mtm"
	"repro/internal/pds"
	"repro/internal/telemetry"
)

// MOD head-to-head: the same single-writer update stream driven through
// pds.OrderedMap against each persistence strategy — the MOD
// shadow-update treap (copy the path, flush, one fence, swap the root)
// and the transactional B+ tree under the redo and undo commit protocols,
// the pairing the benchmark's ladder also measures. The figure of merit
// is device fences per committed mutation: MOD's contract is exactly 1.00
// (the perf gate asserts it), bought at the cost of shadow-copying the
// path, which the shadow-bytes column prices.

// ModOpts configures the experiment.
type ModOpts struct {
	Options
	// Backends are the cells to run (default mod, mtm-redo, mtm-undo).
	Backends []string
	// Ops is the number of committed mutations (default 2000).
	Ops int
	// KeySpace is how many distinct keys the stream touches (default 256).
	KeySpace int
	// ValueBytes sizes the values (default 64).
	ValueBytes int
}

func (o *ModOpts) fill() {
	if len(o.Backends) == 0 {
		o.Backends = []string{"mod", "mtm-redo", "mtm-undo"}
	}
	if o.Ops == 0 {
		o.Ops = 2000
	}
	if o.KeySpace == 0 {
		o.KeySpace = 256
	}
	if o.ValueBytes == 0 {
		o.ValueBytes = 64
	}
}

// ModRow is one backend's measurement.
type ModRow struct {
	Backend   string
	OpsPerSec float64
	// FencesPerOp is device fences per committed mutation — exactly 1.0
	// for the MOD backend, the commit protocol's cost for the mtm cells.
	FencesPerOp float64
	// ShadowBytesPerOp is the freshly allocated shadow-block bytes each
	// mutation copied (0 for the in-place mtm backends).
	ShadowBytesPerOp float64
}

func (r ModRow) String() string {
	return fmt.Sprintf("%-10s %9.0f ops/s, %5.2f fences/op, %6.0f shadow B/op",
		r.Backend, r.OpsPerSec, r.FencesPerOp, r.ShadowBytesPerOp)
}

// RunMod sweeps the backends.
func RunMod(o ModOpts) ([]ModRow, error) {
	o.fill()
	var rows []ModRow
	for _, backend := range o.Backends {
		row, err := RunModCell(o, backend)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunModCell measures one backend on a fresh stack. The op stream is
// deterministic (seeded), single-writer, 3:1 puts to deletes, and every
// op is a real committed mutation — deletes target keys known live, so
// fence accounting divides by exactly Ops.
func RunModCell(o ModOpts, backend string) (ModRow, error) {
	o.fill()
	opts := o.Options
	switch backend {
	case "mtm-redo":
		opts.CommitMode = "redo"
	case "mtm-undo":
		opts.CommitMode = "undo"
	}
	env, err := NewEnv(opts)
	if err != nil {
		return ModRow{}, err
	}
	defer env.Close()
	root, err := env.Root("bench.mod")
	if err != nil {
		return ModRow{}, err
	}

	var m pds.OrderedMap
	switch backend {
	case "mod":
		m, err = pds.NewOrderedMap(pds.BackendMOD, pds.Env{RT: env.RT, Heap: env.Heap}, root)
	case "mtm-redo", "mtm-undo":
		th, terr := env.TM.NewThread()
		if terr != nil {
			return ModRow{}, terr
		}
		defer th.Close()
		m, err = pds.NewOrderedMap(pds.BackendMTM, pds.Env{TM: env.TM, Thread: th}, root)
	default:
		return ModRow{}, fmt.Errorf("unknown mod-bench backend %q (want mod, mtm-redo, mtm-undo)", backend)
	}
	if err != nil {
		return ModRow{}, err
	}

	rng := rand.New(rand.NewSource(11))
	val := make([]byte, o.ValueBytes)
	rng.Read(val)
	var live []uint64
	liveSet := make(map[uint64]bool)

	startFences := env.Dev.Snapshot().Fences
	startShadow := telemetry.Default.Snapshot()["mod_shadow_bytes_total"]
	start := time.Now()
	for i := 0; i < o.Ops; i++ {
		if i%4 == 3 && len(live) > 0 {
			j := rng.Intn(len(live))
			key := live[j]
			if err := m.Do(func(tx *mtm.Tx) error { return m.Delete(tx, key) }); err != nil {
				return ModRow{}, fmt.Errorf("%s: delete %d: %w", backend, key, err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			delete(liveSet, key)
			continue
		}
		key := uint64(rng.Intn(o.KeySpace))
		if err := m.Do(func(tx *mtm.Tx) error { return m.Put(tx, key, val) }); err != nil {
			return ModRow{}, fmt.Errorf("%s: put %d: %w", backend, key, err)
		}
		if !liveSet[key] {
			liveSet[key] = true
			live = append(live, key)
		}
	}
	elapsed := time.Since(start)
	env.TM.Drain()
	fences := env.Dev.Snapshot().Fences - startFences
	shadow := telemetry.Default.Snapshot()["mod_shadow_bytes_total"] - startShadow
	return ModRow{
		Backend:          backend,
		OpsPerSec:        float64(o.Ops) / elapsed.Seconds(),
		FencesPerOp:      float64(fences) / float64(o.Ops),
		ShadowBytesPerOp: shadow / float64(o.Ops),
	}, nil
}
