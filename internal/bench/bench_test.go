package bench

import (
	"testing"
	"time"
)

// Kernel sanity tests run every experiment with delays off and tiny
// workloads so CI stays fast; the real numbers come from cmd/mnbench and
// the repository benchmarks.

func quick() Options { return Options{Spin: false, DeviceSize: 256 << 20, HeapSize: 64 << 20} }

func TestHashtableKernels(t *testing.T) {
	for _, threads := range []int{1, 2} {
		m, err := RunHashtableMTM(HashOpts{
			Options: quick(), ValueSize: 64, Threads: threads, OpsPerThread: 200,
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.UpdatesPerSec <= 0 || m.WriteLatency <= 0 {
			t.Fatalf("MTM row: %+v", m)
		}
		b, err := RunHashtableBDB(HashOpts{
			Options: quick(), ValueSize: 64, Threads: threads, OpsPerThread: 200,
		})
		if err != nil {
			t.Fatal(err)
		}
		if b.UpdatesPerSec <= 0 {
			t.Fatalf("BDB row: %+v", b)
		}
	}
}

func TestLDAPKernelAllBackends(t *testing.T) {
	for _, backend := range []string{"bdb", "ldbm", "mnemosyne"} {
		row, err := RunLDAP(LDAPOpts{Options: quick(), Backend: backend, Threads: 4, Entries: 300})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if row.UpdatesPS <= 0 {
			t.Fatalf("%s: %+v", backend, row)
		}
	}
}

func TestTCKernelBothModes(t *testing.T) {
	for _, mode := range []string{"msync", "mnemosyne"} {
		row, err := RunTC(TCOpts{Options: quick(), Mode: mode, ValueSize: 64, Ops: 300})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if row.UpdatesPS <= 0 {
			t.Fatalf("%s: %+v", mode, row)
		}
	}
}

func TestTable5Kernel(t *testing.T) {
	row, err := RunTable5(Table5Opts{Options: quick(), TreeSize: 512, MeasuredInserts: 100})
	if err != nil {
		t.Fatal(err)
	}
	if row.InsertLatency <= 0 || row.SerializeLatency <= 0 {
		t.Fatalf("row: %+v", row)
	}
	if row.InsertsPerSerialization <= 1 {
		t.Fatalf("serialization should cost more than one insert: %+v", row)
	}
}

func TestTable6Kernel(t *testing.T) {
	row, err := RunTable6(Table6Opts{Options: quick(), RecordBytes: 64, Appends: 500})
	if err != nil {
		t.Fatal(err)
	}
	if row.BaseMBps <= 0 || row.TornbitMBps <= 0 {
		t.Fatalf("row: %+v", row)
	}
}

func TestFigure6Kernel(t *testing.T) {
	row, err := RunFigure6Cell(50, 64, quick())
	if err != nil {
		t.Fatal(err)
	}
	if row.SyncLat <= 0 || row.AsyncLat <= 0 {
		t.Fatalf("row: %+v", row)
	}
}

func TestFigure7Kernel(t *testing.T) {
	row, err := RunFigure7Cell(time.Microsecond, 64, quick())
	if err != nil {
		t.Fatal(err)
	}
	if row.MTM <= 0 || row.BDB <= 0 {
		t.Fatalf("row: %+v", row)
	}
}

func TestReincarnationKernel(t *testing.T) {
	res, err := RunReincarnation(ReincarnationOpts{
		Options: quick(), LiveAllocs: 500, PendingTx: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The log manager may have truncated some commits before the halt;
	// the rest must replay (RunReincarnation itself verifies the data).
	if res.TxReplayed < 1 || res.TxReplayed > 16 {
		t.Fatalf("replayed %d, want 1..16", res.TxReplayed)
	}
	if res.ManagerBoot <= 0 || res.HeapScavenge <= 0 {
		t.Fatalf("result: %+v", res)
	}
}

func TestReadMostlyKernel(t *testing.T) {
	rows, err := RunReadMostly(ReadMostlyOpts{
		Options: quick(), GoroutineSweep: []int{1, 4}, OpsPerG: 100, Keys: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.OpsPerSec <= 0 {
			t.Fatalf("row: %+v", r)
		}
		switch r.Mode {
		case "atomic":
			if r.LeasesPerOp < 0.9 {
				t.Fatalf("atomic baseline should lease per op: %+v", r)
			}
		case "view":
			// ~5% of ops are writes; only those lease.
			if r.LeasesPerOp > 0.5 {
				t.Fatalf("view mode should barely lease: %+v", r)
			}
		}
	}
}

func TestHybridKernel(t *testing.T) {
	rows, err := RunHybrid(HybridOpts{
		Options: quick(), GoroutineSweep: []int{1}, TxPerG: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	byMode := map[string]HybridRow{}
	for _, r := range rows {
		if r.OpsPerSec <= 0 || r.FencesPerCommit <= 0 {
			t.Fatalf("row: %+v", r)
		}
		byMode[r.Mode] = r
	}
	// The acceptance head-to-head: at one goroutine the undo path issues
	// fewer device fences per commit than sync redo, and hybrid (whose
	// 4-word write sets fall under the threshold) rides the undo path.
	if byMode["undo"].FencesPerCommit >= byMode["redo"].FencesPerCommit {
		t.Fatalf("undo %.2f fences/commit not below redo %.2f",
			byMode["undo"].FencesPerCommit, byMode["redo"].FencesPerCommit)
	}
	if byMode["hybrid"].UndoShare < 0.9 {
		t.Fatalf("hybrid undo share = %.2f, want ~1 for 4-word txs", byMode["hybrid"].UndoShare)
	}
	if byMode["redo"].UndoShare != 0 {
		t.Fatalf("redo mode took the undo path: %+v", byMode["redo"])
	}
}

// TestModKernel pins what perfgate reads off the mod experiment's rows, on
// the pairing it now runs (B+ tree against treap): MOD commits every
// mutation with exactly one fence and pays for it in shadow bytes, the
// in-place backends copy nothing, and undo orders less than redo.
func TestModKernel(t *testing.T) {
	rows, err := RunMod(ModOpts{Options: quick(), Ops: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	by := map[string]ModRow{}
	for _, r := range rows {
		if r.OpsPerSec <= 0 {
			t.Fatalf("row: %+v", r)
		}
		by[r.Backend] = r
	}
	mod, redo, undo := by["mod"], by["mtm-redo"], by["mtm-undo"]
	if mod.FencesPerOp != 1 || mod.ShadowBytesPerOp <= 0 {
		t.Fatalf("mod: %v fences/op and %v shadow B/op, want exactly 1 and some", mod.FencesPerOp, mod.ShadowBytesPerOp)
	}
	if undo.FencesPerOp >= redo.FencesPerOp || mod.FencesPerOp >= redo.FencesPerOp {
		t.Fatalf("fences/op: mod %.2f, mtm-undo %.2f, mtm-redo %.2f; want both below redo",
			mod.FencesPerOp, undo.FencesPerOp, redo.FencesPerOp)
	}
	if redo.ShadowBytesPerOp != 0 || undo.ShadowBytesPerOp != 0 {
		t.Fatalf("in-place backends copied shadow bytes: redo %v, undo %v", redo.ShadowBytesPerOp, undo.ShadowBytesPerOp)
	}
}

func TestReadCacheKernel(t *testing.T) {
	rows, err := RunReadCache(ReadCacheOpts{
		Options: quick(), GoroutineSweep: []int{1, 4}, OpsPerG: 100, Keys: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.OpsPerSec <= 0 {
			t.Fatalf("row: %+v", r)
		}
		switch r.Cache {
		case "off":
			if r.HitRate != 0 {
				t.Fatalf("cache off but hit rate %.2f: %+v", r.HitRate, r)
			}
		case "on":
			// 64 hot keys over a 2000-op warm run: the tree's upper
			// levels alone must hit well over half the time.
			if r.HitRate < 0.3 {
				t.Fatalf("cache on but hit rate only %.2f: %+v", r.HitRate, r)
			}
		}
	}
}

func TestAblationKernels(t *testing.T) {
	for _, v := range AblationVariants {
		row, err := RunAblation(v, 64, quick())
		if err != nil {
			t.Fatal(err)
		}
		if row.UpdatesPerSec <= 0 {
			t.Fatalf("%s: %+v", v, row)
		}
	}
}

func TestShardedKernel(t *testing.T) {
	rows, err := RunSharded(ShardedOpts{
		Options: quick(), ShardSweep: []int{1, 2}, Goroutines: 4, OpsPerG: 50, Keys: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.OpsPerSec <= 0 || r.WallOpsPerSec <= 0 || r.FencesPerCommit <= 0 {
			t.Fatalf("row: %+v", r)
		}
		if len(r.ShardCommits) != r.Shards {
			t.Fatalf("row has %d shard commit cells for %d shards", len(r.ShardCommits), r.Shards)
		}
		for k, c := range r.ShardCommits {
			if c == 0 {
				t.Fatalf("%d shards: shard %d committed nothing", r.Shards, k)
			}
		}
	}
	// Splitting the same device-bound work over two shards must help the
	// modeled (busiest-device) throughput.
	if rows[1].OpsPerSec <= rows[0].OpsPerSec {
		t.Fatalf("2 shards (%.0f modeled ops/s) not faster than 1 (%.0f)",
			rows[1].OpsPerSec, rows[0].OpsPerSec)
	}
}

func TestShardedRecoveryKernel(t *testing.T) {
	rows, err := RunShardedRecovery(ShardedRecoveryOpts{
		Options: quick(), Shards: 2, HeapSweepMB: []int64{4}, KeysPerMB: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Recovery <= 0 || r.ShardMax <= 0 || r.ShardMax > r.Recovery {
			t.Fatalf("row: %+v", r)
		}
	}
	if rows[0].Workers != 1 || rows[1].Workers != 2 {
		t.Fatalf("worker modes: %+v", rows)
	}
}

func TestRESPKernel(t *testing.T) {
	row, err := RunRESP(RESPOpts{
		Options: quick(), Clients: 2, Window: 8, OpsPerClient: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if row.OpsPerSec <= 0 {
		t.Fatalf("RESP row: %+v", row)
	}
	if row.FencesPerCommit <= 0 {
		t.Fatalf("no commits observed: %+v", row)
	}
	if row.AllocsPerOp <= 0 {
		t.Fatalf("no allocations observed: %+v", row)
	}
}
