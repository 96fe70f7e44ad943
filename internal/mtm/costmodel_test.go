package mtm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/pheap"
	"repro/internal/pmem"
	"repro/internal/region"
	"repro/internal/scm"
	"repro/internal/telemetry"
)

// The accounting delay mode makes the emulator's cost model deterministic,
// so the per-commit SCM costs of §5/§6.3 can be asserted exactly:
//
//	redo commit = 1 fence for the log flush (latency + logged bytes/bw)
//	            + 1 flush per distinct modified cache line (latency each)
//	            + 1 fence before truncation
//	            + 1 fence for the head update (truncate)
//
// These tests pin the transaction system to that model; any regression
// that adds fences or flushes to the commit path fails them.

func costEnv(t *testing.T, cfg Config) (*TM, *Thread, pmem.Addr, *scm.Device) {
	t.Helper()
	dev, err := scm.Open(scm.Config{
		Size:           64 << 20,
		Mode:           scm.DelayAccount,
		WriteLatency:   100 * time.Nanosecond,
		WriteBandwidth: 8 << 30, // 8 GiB/s: 1 byte costs exactly 2^-33 s
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := region.Open(dev, region.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	heapBase, err := rt.PMap(16<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := pheap.Format(rt, heapBase, 16<<20, pheap.Config{Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Heap, cfg.Slots = heap, 2
	tm, err := Open(rt, "cost", cfg)
	if err != nil {
		t.Fatal(err)
	}
	th, err := tm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	data, err := rt.PMap(1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tm, th, data, dev
}

func TestCommitCostModel(t *testing.T) {
	const lat = 100 * time.Nanosecond
	cases := []struct {
		name  string
		words int
		lines int64 // distinct cache lines written
	}{
		{"1word", 1, 1},
		{"8words-1line", 8, 1},
		{"64words-8lines", 64, 8},
		{"512words-64lines", 512, 64},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, th, data, _ := costEnv(t, Config{})
			// Warm up allocator/table state outside the measured tx.
			if err := th.Atomic(func(tx *Tx) error {
				tx.StoreU64(data.Add(1<<19), 1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			ctx := th.Memory().Context()
			ctx.ResetAccounting()
			if err := th.Atomic(func(tx *Tx) error {
				for w := 0; w < c.words; w++ {
					tx.StoreU64(data.Add(int64(w)*8), uint64(w))
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			got := ctx.AccountedTime()

			// Model: log flush fence (latency + bytes/bw) + per-line
			// flushes + post-writeback fence + truncate fence.
			logBytes := logStreamBytes(3 + 2*c.words)
			bwNs := float64(logBytes) / float64(8<<30) * 1e9
			truncNs := 8.0 / float64(8<<30) * 1e9
			want := lat + time.Duration(bwNs) + // log flush fence
				time.Duration(c.lines)*lat + // per-line flushes
				lat + // fence after write-back
				lat + time.Duration(truncNs) // truncate: 8-byte head + fence
			if got < want-10*time.Nanosecond || got > want+10*time.Nanosecond {
				t.Fatalf("accounted %v, model %v (words=%d lines=%d)", got, want, c.words, c.lines)
			}
		})
	}
}

// logStreamBytes returns the bytes streamed into the tornbit log for a
// record of k payload words: header + payload packed 63 bits per word,
// padded to whole log words.
func logStreamBytes(k int) int64 {
	bits := int64(1+k) * 64
	return (bits + 62) / 63 * 8
}

// overwritePut is the transaction an overwrite SET issues: free the old
// value block, allocate a new one, fill it with a length word and n value
// bytes, and swing the pointer. Whatever n is, the record carries three
// pairs: the pointer, one BitSet, one BitClear.
func overwritePut(tx *Tx, root pmem.Addr, n int, v byte) error {
	if old := pmem.Addr(tx.LoadU64(root)); old != pmem.Nil {
		if err := tx.FreeBlock(old); err != nil {
			return err
		}
	}
	b, err := tx.Alloc(8 + int64(n))
	if err != nil {
		return err
	}
	tx.StoreU64(b, uint64(n))
	tx.Store(b.Add(8), bytes.Repeat([]byte{v}, n))
	tx.StoreU64(root, uint64(b))
	return nil
}

// TestTxAllocCostModel pins what allocating and filling a block inside a
// transaction costs: nothing beyond the commit protocol and one flush per
// cache line of the block. The allocation and the free ride the
// transaction's own record as two more pairs and drain with its write-back
// fence as two write-through words; pheap's lane log is never touched; the
// value bytes go to the block with cacheable stores and are flushed ahead of
// the record, which therefore is the same three pairs — and the device sees
// the same write-through bytes — for a 64-byte value and a 2048-byte one. In
// hybrid mode both are one-word write sets and take the undo path.
func TestTxAllocCostModel(t *testing.T) {
	const lat = 100 * time.Nanosecond
	ns := func(bytes int64) time.Duration {
		return time.Duration(float64(bytes) / float64(8<<30) * 1e9)
	}
	const pairs = 3
	modes := []struct {
		name                  string
		cfg                   Config
		fences, appends, trun uint64
		payload               int64 // record payload bytes appended to the log
		streamed              int64 // bytes written through: log stream, bitmap words, head
		model                 func(lines int64) time.Duration
	}{
		// Value-line flushes, log flush, pointer-line flush, write-back fence
		// draining the two bitmap words, truncation fence draining the head.
		{"redo", Config{}, 3, 1, 1, 8 * (3 + 2*pairs), logStreamBytes(3+2*pairs) + 16 + 8,
			func(lines int64) time.Duration {
				return time.Duration(lines)*lat + lat + ns(logStreamBytes(3+2*pairs)) + lat + ns(16) + lat + ns(8)
			}},
		// Value-line flushes, batch flush, pointer-line flush, marker fence
		// draining the bitmap words with it; truncation is amortized away.
		{"hybrid", Config{CommitMode: "hybrid"}, 2, 2, 0, 8 * (2 + 2*pairs + 2), logStreamBytes(2+2*pairs) + logStreamBytes(2) + 16,
			func(lines int64) time.Duration {
				return time.Duration(lines)*lat + lat + ns(logStreamBytes(2+2*pairs)) + lat + ns(16+logStreamBytes(2))
			}},
	}
	sizes := []struct {
		n     int
		lines int64 // the block's (8+n bytes, class-aligned) plus the pointer's
	}{{64, 3}, {2048, 34}}
	for _, c := range modes {
		for _, sz := range sizes {
			t.Run(fmt.Sprintf("%s/%dB", c.name, sz.n), func(t *testing.T) {
				_, th, data, dev := costEnv(t, c.cfg)
				// The first put adopts the size class's superblock (a durable
				// class assignment, once per superblock) and has nothing to
				// free; the second is the steady state.
				for v := byte(1); v <= 2; v++ {
					if err := th.Atomic(func(tx *Tx) error { return overwritePut(tx, data, sz.n, v) }); err != nil {
						t.Fatal(err)
					}
				}
				ctx := th.Memory().Context()
				ctx.ResetAccounting()
				dev0, tel0 := dev.Snapshot(), telemetry.Default.Snapshot()
				if err := th.Atomic(func(tx *Tx) error { return overwritePut(tx, data, sz.n, 3) }); err != nil {
					t.Fatal(err)
				}
				dev1, tel1 := dev.Snapshot(), telemetry.Default.Snapshot()
				if got := dev1.Fences - dev0.Fences; got != c.fences {
					t.Errorf("fences = %d, want %d", got, c.fences)
				}
				if got := dev1.Flushes - dev0.Flushes; got != uint64(sz.lines) {
					t.Errorf("flushed lines = %d, want %d", got, sz.lines)
				}
				if got := dev1.BytesWT - dev0.BytesWT; got != uint64(c.streamed) {
					t.Errorf("write-through bytes = %d, want %d", got, c.streamed)
				}
				for _, m := range []struct {
					name string
					want float64
				}{
					{"rawl_appends_total", float64(c.appends)},
					{"rawl_append_payload_bytes_total", float64(c.payload)},
					{"rawl_truncations_total", float64(c.trun)},
					{"pheap_lane_log_appends_total", 0},
					{"pheap_tx_reservations_total", 1},
					{"pheap_allocs_total", 1},
					{"pheap_frees_total", 1},
					{"pheap_alloc_bytes_total", float64(8 + sz.n)},
					{"mtm_fresh_bytes_total", float64(8 + sz.n)},
					{"mtm_fresh_lines_flushed_total", float64(sz.lines - 1)},
				} {
					if got := tel1[m.name] - tel0[m.name]; got != m.want {
						t.Errorf("%s advanced by %v, want %v", m.name, got, m.want)
					}
				}
				if got, want := ctx.AccountedTime(), c.model(sz.lines); got < want-10*time.Nanosecond || got > want+10*time.Nanosecond {
					t.Errorf("accounted %v, model %v", got, want)
				}
			})
		}
	}
}

// TestAbortedAllocCostsNothing: a transaction that allocates, stores into
// the block and aborts costs the device nothing — no fence, no flush, no
// write-through word left pending; the store sits in the cache, in a line of
// a block that is free — and the block it held is the next one handed out.
func TestAbortedAllocCostsNothing(t *testing.T) {
	_, th, data, dev := costEnv(t, Config{})
	if err := th.Atomic(func(tx *Tx) error { return overwritePut(tx, data, 64, 1) }); err != nil {
		t.Fatal(err)
	}
	dev0, pending0, dirty0 := dev.Snapshot(), dev.PendingWTWords(), dev.DirtyLines()
	boom := errors.New("abort")
	var held pmem.Addr
	if err := th.Atomic(func(tx *Tx) (err error) {
		if held, err = tx.Alloc(8 + 64); err != nil { // the class the put warmed up
			return err
		}
		tx.StoreU64(held, 9)
		tx.StoreU64(data.Add(256), uint64(held))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Atomic returned %v, want the abort", err)
	}
	dev1 := dev.Snapshot()
	if dev1.Fences != dev0.Fences || dev1.Flushes != dev0.Flushes || dev1.AccountedNs != dev0.AccountedNs ||
		dev.PendingWTWords() != pending0 || dev.DirtyLines() > dirty0+1 {
		t.Fatalf("aborted allocation touched SCM: %+v -> %+v, pending WT words %d -> %d, dirty lines %d -> %d",
			dev0, dev1, pending0, dev.PendingWTWords(), dirty0, dev.DirtyLines())
	}
	if err := th.Atomic(func(tx *Tx) error {
		again, err := tx.Alloc(8 + 64)
		if err == nil && again != held {
			err = fmt.Errorf("aborted block %v not handed out again (got %v)", held, again)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyTxCostsNothing(t *testing.T) {
	_, th, data, _ := costEnv(t, Config{})
	if err := th.Atomic(func(tx *Tx) error {
		tx.StoreU64(data, 7)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ctx := th.Memory().Context()
	ctx.ResetAccounting()
	if err := th.Atomic(func(tx *Tx) error {
		for i := int64(0); i < 64; i++ {
			_ = tx.LoadU64(data.Add(i * 8))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := ctx.AccountedTime(); got != 0 {
		t.Fatalf("read-only transaction accounted %v SCM time", got)
	}
}

func TestUndoCostsOneFencePerWrite(t *testing.T) {
	// The §5 argument quantified: undo logging pays a log-flush fence
	// before every in-place update, so an n-word transaction costs at
	// least n fences more than redo.
	const lat = 100 * time.Nanosecond
	dev, err := scm.Open(scm.Config{
		Size:           64 << 20,
		Mode:           scm.DelayAccount,
		WriteLatency:   lat,
		WriteBandwidth: 8 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := region.Open(dev, region.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := Open(rt, "undocost", Config{Slots: 2, UndoLogging: true})
	if err != nil {
		t.Fatal(err)
	}
	th, err := tm.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	data, err := rt.PMap(1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	const words = 32
	ctx := th.Memory().Context()
	ctx.ResetAccounting()
	if err := th.Atomic(func(tx *Tx) error {
		for w := int64(0); w < words; w++ {
			tx.StoreU64(data.Add(w*8), uint64(w))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got := ctx.AccountedTime()
	// At minimum: one fence per undo-logged write plus the commit-side
	// flushes and two fences.
	min := time.Duration(words) * lat
	if got < min {
		t.Fatalf("undo tx accounted %v, expected at least %v (one fence per write)", got, min)
	}
}
