package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/mtm"
	"repro/internal/pds"
	"repro/internal/scm"
)

func testConfig(t *testing.T, shards int) Config {
	t.Helper()
	return Config{
		Config: core.Config{
			DeviceSize: 16 << 20,
			HeapSize:   4 << 20,
			Dir:        t.TempDir(),
			Threads:    8,
		},
		Shards: shards,
	}
}

func openStore(t *testing.T, shards int) *Store {
	t.Helper()
	st, err := Open(testConfig(t, shards))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st
}

// crashReattach quiesces the store, crashes every shard's device under
// pol, and reattaches over the surviving images.
func crashReattach(t *testing.T, st *Store, cfg Config, pol func() scm.CrashPolicy) *Store {
	t.Helper()
	st.StopTruncation()
	devs := st.Devices()
	for _, dev := range devs {
		dev.Crash(pol())
	}
	st2, err := Attach(devs, cfg)
	if err != nil {
		t.Fatalf("Attach after crash: %v", err)
	}
	return st2
}

func TestRoutingAndBasicOps(t *testing.T) {
	st := openStore(t, 3)
	defer st.Close()

	const n = 200
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%04d", i)
		if err := st.Set(key, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("Set %s: %v", key, err)
		}
	}
	// Keys must have spread over all shards (FNV over 200 keys cannot
	// plausibly land on fewer).
	for k := 0; k < st.NShards(); k++ {
		sh := st.Shard(k)
		ln := 0
		sh.PM.View(func(r *mtm.ReadTx) error {
			ln = sh.Tree.Len(r)
			return nil
		})
		if ln == 0 {
			t.Errorf("shard %d holds no keys", k)
		}
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%04d", i)
		v, err := st.Get(key)
		if err != nil || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get %s = %q, %v", key, v, err)
		}
		// Routing is stable: the shard index derives from the key alone.
		if got, want := st.ShardOf(key), int(HashKey(key)%uint64(st.NShards())); got != want {
			t.Fatalf("ShardOf(%s) = %d, want %d", key, got, want)
		}
	}
	if cnt, err := st.Count(); err != nil || cnt != n {
		t.Fatalf("Count = %d, %v; want %d", cnt, err, n)
	}
	if err := st.Del("key-0000"); err != nil {
		t.Fatalf("Del: %v", err)
	}
	if _, err := st.Get("key-0000"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Del: %v", err)
	}
	if err := st.Del("key-0000"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Del of absent key: %v", err)
	}

	keys := []string{"key-0001", "nope", "key-0199"}
	values, present, err := st.MGet(keys)
	if err != nil {
		t.Fatalf("MGet: %v", err)
	}
	if !present[0] || present[1] || !present[2] || values[0] != "v1" || values[2] != "v199" {
		t.Fatalf("MGet = %v %v", values, present)
	}
	if n, err := st.MDel([]string{"key-0001", "nope", "key-0002"}); err != nil || n != 2 {
		t.Fatalf("MDel = %d, %v", n, err)
	}
}

func TestCrossShardMSetAppliesEverywhere(t *testing.T) {
	cfg := testConfig(t, 4)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 16)
	values := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("ms-%d", i)
		values[i] = fmt.Sprintf("mv-%d", i)
	}
	if err := st.MSet(keys, values); err != nil {
		t.Fatalf("MSet: %v", err)
	}
	// 16 FNV-hashed keys over 4 shards: this particular MSET must span
	// several shards, or the test exercises nothing.
	if spanned := bits.OnesCount64(touched(st, keys)); spanned < 2 {
		t.Fatalf("MSET spanned %d shards; fix the key set", spanned)
	}
	for i := range keys {
		if v, err := st.Get(keys[i]); err != nil || v != values[i] {
			t.Fatalf("Get %s = %q, %v", keys[i], v, err)
		}
	}
	// MSetRecs routes by the records' own keys, so it refuses a key that
	// does not name its record, before anything is written.
	rec, err := EncodeKV("ms-0", "other")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.MSetRecs([]string{"ms-1"}, [][]byte{rec}); err == nil {
		t.Fatal("MSetRecs accepted a key naming another key's record")
	}
	if v, err := st.Get("ms-0"); err != nil || v != values[0] {
		t.Fatalf("Get ms-0 after a refused MSetRecs = %q, %v", v, err)
	}
	// Intent tables are clean after a completed MSET.
	for k := 0; k < st.NShards(); k++ {
		sh := st.Shard(k)
		sh.PM.View(func(r *mtm.ReadTx) error {
			if stage := sh.openStage(r); stage != nil {
				if n := stage.Len(r); n != 0 {
					t.Errorf("shard %d: %d leftover intents", k, n)
				}
			}
			return nil
		})
	}
	// The pairs survive a clean crash/reattach.
	st2 := crashReattach(t, st, cfg, func() scm.CrashPolicy { return scm.KeepAll{} })
	defer st2.Close()
	for i := range keys {
		if v, err := st2.Get(keys[i]); err != nil || v != values[i] {
			t.Fatalf("after reattach: Get %s = %q, %v", keys[i], v, err)
		}
	}
}

// stagePut durably writes a fabricated intent record on one shard, the
// way a crash between protocol phases would leave it.
func stagePut(t *testing.T, st *Store, k int, xid uint64, blob []byte) {
	t.Helper()
	sh := st.Shard(k)
	stage, err := sh.ensureStage()
	if err != nil {
		t.Fatalf("shard %d ensureStage: %v", k, err)
	}
	if err := sh.PM.Atomic(func(tx *mtm.Tx) error {
		return stage.Put(tx, xid, blob)
	}); err != nil {
		t.Fatalf("shard %d stage put: %v", k, err)
	}
}

func stageLen(t *testing.T, st *Store, k int) int64 {
	t.Helper()
	sh := st.Shard(k)
	var n int64
	sh.PM.View(func(r *mtm.ReadTx) error {
		if stage := sh.openStage(r); stage != nil {
			n = stage.Len(r)
		}
		return nil
	})
	return n
}

// TestRecoveryRollsBackPartialPrepare: a crash after some but not all
// participants prepared must leave no trace of the MSET.
func TestRecoveryRollsBackPartialPrepare(t *testing.T) {
	cfg := testConfig(t, 3)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec0, _ := EncodeKV("torn-a", "x")
	// Participants 0 and 2; only shard 0 got its prepare durable.
	mask := uint64(1<<0 | 1<<2)
	stagePut(t, st, 0, 7, appendIntent(nil, statePrepared, mask, [][]byte{rec0}))

	st2 := crashReattach(t, st, cfg, func() scm.CrashPolicy { return scm.KeepAll{} })
	defer st2.Close()
	if c, a := st2.RecoveredIntents(); c != 0 || a != 1 {
		t.Fatalf("recovered commits=%d aborts=%d, want 0/1", c, a)
	}
	if _, err := st2.Get("torn-a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rolled-back pair visible: %v", err)
	}
	for k := 0; k < st2.NShards(); k++ {
		if n := stageLen(t, st2, k); n != 0 {
			t.Fatalf("shard %d: %d intents survive rollback", k, n)
		}
	}
}

// TestRecoveryRollsForwardFullPrepare: once every participant's prepare
// is durable the transaction commits, even though no shard applied yet.
func TestRecoveryRollsForwardFullPrepare(t *testing.T) {
	cfg := testConfig(t, 3)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a second key guaranteed to route to a different shard, so
	// the fabricated intent really is cross-shard.
	ka := st.ShardOf("fwd-a")
	keyB := pickKeyOffShard(st, ka, "fwd-b")
	kb := st.ShardOf(keyB)
	recA, _ := EncodeKV("fwd-a", "va")
	recB, _ := EncodeKV(keyB, "vb")
	mask := uint64(1<<uint(ka) | 1<<uint(kb))
	stagePut(t, st, ka, 9, appendIntent(nil, statePrepared, mask, [][]byte{recA}))
	stagePut(t, st, kb, 9, appendIntent(nil, statePrepared, mask, [][]byte{recB}))

	st2 := crashReattach(t, st, cfg, func() scm.CrashPolicy { return scm.KeepAll{} })
	defer st2.Close()
	if c, a := st2.RecoveredIntents(); c != 1 || a != 0 {
		t.Fatalf("recovered commits=%d aborts=%d, want 1/0", c, a)
	}
	if v, err := st2.Get("fwd-a"); err != nil || v != "va" {
		t.Fatalf("fwd-a = %q, %v", v, err)
	}
	if v, err := st2.Get(keyB); err != nil || v != "vb" {
		t.Fatalf("%s = %q, %v", keyB, v, err)
	}
	for k := 0; k < st2.NShards(); k++ {
		if n := stageLen(t, st2, k); n != 0 {
			t.Fatalf("shard %d: %d intents survive roll-forward", k, n)
		}
	}
}

// TestRecoveryRollsForwardAfterPartialApply: one shard applied (tree
// updated, record marked applied), the other still prepared — recovery
// must finish the job on the prepared shard.
func TestRecoveryRollsForwardAfterPartialApply(t *testing.T) {
	cfg := testConfig(t, 3)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ka := st.ShardOf("pa-a")
	keyB := pickKeyOffShard(st, ka, "pa-b")
	kb := st.ShardOf(keyB)
	recB, _ := EncodeKV(keyB, "vb")
	mask := uint64(1<<uint(ka) | 1<<uint(kb))
	// Shard ka applied: pair in tree, record applied.
	if err := st.Set("pa-a", "va"); err != nil {
		t.Fatal(err)
	}
	stagePut(t, st, ka, 11, appendIntent(nil, stateApplied, mask, nil))
	// Shard kb crashed still prepared.
	stagePut(t, st, kb, 11, appendIntent(nil, statePrepared, mask, [][]byte{recB}))

	st2 := crashReattach(t, st, cfg, func() scm.CrashPolicy { return scm.KeepAll{} })
	defer st2.Close()
	if c, a := st2.RecoveredIntents(); c != 1 || a != 0 {
		t.Fatalf("recovered commits=%d aborts=%d, want 1/0", c, a)
	}
	if v, err := st2.Get(keyB); err != nil || v != "vb" {
		t.Fatalf("%s = %q, %v", keyB, v, err)
	}
}

// pickKeyOffShard returns prefix<i> for the smallest i whose key routes
// to a shard other than avoid. Deterministic for a fixed hash.
func pickKeyOffShard(st *Store, avoid int, prefix string) string {
	for i := 0; ; i++ {
		key := fmt.Sprintf("%s%d", prefix, i)
		if st.ShardOf(key) != avoid {
			return key
		}
	}
}

// TestParallelRecoveryMatchesSerial: the same crashed image attaches to
// identical contents whether shards recover concurrently or one by one.
func TestParallelRecoveryMatchesSerial(t *testing.T) {
	cfg := testConfig(t, 4)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := st.Set(fmt.Sprintf("pr-%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	serial := cfg
	serial.RecoveryWorkers = 1
	st2 := crashReattach(t, st, serial, func() scm.CrashPolicy { return scm.NewRandomPolicy(42) })
	want := make(map[string]string)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("pr-%d", i)
		v, err := st2.Get(key)
		if err != nil {
			t.Fatalf("serial recovery lost %s: %v", key, err)
		}
		want[key] = v
	}
	parallel := cfg
	parallel.RecoveryWorkers = 4
	st3 := crashReattach(t, st2, parallel, func() scm.CrashPolicy { return scm.KeepAll{} })
	defer st3.Close()
	for key, v := range want {
		got, err := st3.Get(key)
		if err != nil || got != v {
			t.Fatalf("parallel recovery: %s = %q, %v; want %q", key, got, err, v)
		}
	}
	for k := 0; k < st3.NShards(); k++ {
		if st3.Shard(k).RecoveryTime <= 0 {
			t.Errorf("shard %d: no recovery time recorded", k)
		}
	}
}

// TestSingleShardCompat: an image written by a direct core.Open — the
// pre-sharding layout — opens as a one-shard store with its data intact,
// and vice versa.
func TestSingleShardCompat(t *testing.T) {
	dir := t.TempDir()
	img := dir + "/scm.img"
	ccfg := core.Config{DevicePath: img, DeviceSize: 16 << 20, HeapSize: 4 << 20, Dir: dir, Threads: 8}
	pm, err := core.Open(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := pm.Static("kvserve.root", 8)
	if err != nil {
		t.Fatal(err)
	}
	tree := pds.NewBPTree(root)
	rec, _ := EncodeKV("classic", "value")
	if err := pm.Atomic(func(tx *mtm.Tx) error {
		return tree.Put(tx, HashKey("classic"), rec)
	}); err != nil {
		t.Fatal(err)
	}
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := Open(Config{Config: ccfg}) // Shards: 0 ⇒ 1
	if err != nil {
		t.Fatalf("sharded open of pre-sharding image: %v", err)
	}
	if v, err := st.Get("classic"); err != nil || v != "value" {
		t.Fatalf("classic key = %q, %v", v, err)
	}
	if err := st.Set("fresh", "new"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// And back: core.Open reads what the one-shard store wrote.
	pm2, err := core.Open(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pm2.Close()
	var got string
	err = pm2.View(func(r *mtm.ReadTx) error {
		raw, err := tree.Get(r, HashKey("fresh"))
		if err != nil {
			return err
		}
		_, v, err := DecodeKV(raw)
		got = v
		return err
	})
	if err != nil || got != "new" {
		t.Fatalf("round-trip key = %q, %v", got, err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Open(Config{Shards: MaxShards + 1}); err == nil {
		t.Error("shard count over MaxShards accepted")
	}
	if _, err := Open(Config{Shards: 2}); err == nil {
		t.Error("multi-shard store without Dir accepted")
	}
	if _, err := core.Open(core.Config{Shards: 4}); err == nil {
		t.Error("core.Open accepted Shards > 1")
	}
	// Shards: 0 and 1 are both single-instance core configs.
	for _, n := range []int{0, 1} {
		pm, err := core.Open(core.Config{DeviceSize: 8 << 20, HeapSize: 2 << 20, Dir: t.TempDir(), Shards: n})
		if err != nil {
			t.Fatalf("core.Open Shards=%d: %v", n, err)
		}
		pm.Close()
	}
}

func TestIntentCodec(t *testing.T) {
	recs := [][]byte{{1, 2, 3}, {}, []byte("hello")}
	// The on-device format, as the allocating encoder this one replaced
	// wrote it: images staged before the change still recover.
	golden := []byte{
		1,                         // statePrepared
		0x0b, 0, 0, 0, 0, 0, 0, 0, // participant mask 0b1011
		3, 0, // records
		3, 0, 0, 0, 1, 2, 3,
		0, 0, 0, 0,
		5, 0, 0, 0, 'h', 'e', 'l', 'l', 'o',
	}
	blob := appendIntent(nil, statePrepared, 0b1011, recs)
	if !bytes.Equal(blob, golden) {
		t.Fatalf("encoded % x\nwant    % x", blob, golden)
	}
	// Encoding into a reused buffer overwrites its leftovers, and
	// appending keeps what precedes.
	reused := append(make([]byte, 0, 64), bytes.Repeat([]byte{0xee}, 40)...)
	if got := appendIntent(reused[:0], statePrepared, 0b1011, recs); !bytes.Equal(got, golden) {
		t.Fatalf("into a reused buffer: % x", got)
	}
	if got := appendIntent([]byte("pre"), statePrepared, 0b1011, recs); !bytes.Equal(got, append([]byte("pre"), golden...)) {
		t.Fatalf("after a prefix: % x", got)
	}
	applied := appendIntent(reused[:0], stateApplied, 1<<63|1, nil)
	if want := []byte{2, 1, 0, 0, 0, 0, 0, 0, 0x80, 0, 0}; !bytes.Equal(applied, want) {
		t.Fatalf("applied record % x, want % x", applied, want)
	}

	it, err := decodeIntent(blob)
	if err != nil {
		t.Fatal(err)
	}
	if it.state != statePrepared || it.mask != 0b1011 || len(it.recs) != 3 {
		t.Fatalf("decoded %+v", it)
	}
	if string(it.recs[2]) != "hello" || len(it.recs[1]) != 0 {
		t.Fatalf("pair payloads corrupted: %v", it.recs)
	}
	if _, err := decodeIntent(blob[:5]); err == nil {
		t.Error("truncated intent accepted")
	}
	if _, err := decodeIntent([]byte{99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("bad state accepted")
	}
}

// encodeHashFieldsRef is the allocating hash encoder AppendHashFields
// replaced, kept as the format's reference.
func encodeHashFieldsRef(fields []HashField) []byte {
	sorted := append([]HashField(nil), fields...)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i].Name, sorted[j].Name) < 0 })
	out := binary.LittleEndian.AppendUint16(nil, uint16(len(sorted)))
	for _, f := range sorted {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(f.Name)))
		out = append(out, f.Name...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(f.Value)))
		out = append(out, f.Value...)
	}
	return out
}

// TestHashCodec pins the hash payload format: encoding into a reused
// buffer with leftover bytes gives the reference encoder's bytes, fields
// come out sorted by name whatever order they went in, and decoding into a
// reused slice round-trips.
func TestHashCodec(t *testing.T) {
	golden := []byte{
		2, 0, // fields
		1, 0, 'a', 3, 0, 0, 0, 'o', 'n', 'e',
		2, 0, 'b', 'b', 0, 0, 0, 0,
	}
	fields := []HashField{{Name: []byte("bb"), Value: []byte{}}, {Name: []byte("a"), Value: []byte("one")}}
	if got := encodeHashFieldsRef(fields); !bytes.Equal(got, golden) {
		t.Fatalf("reference encoder % x, want % x", got, golden)
	}
	buf := bytes.Repeat([]byte{0xee}, 64)
	var decoded []HashField
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		n := rng.Intn(12)
		if round == 0 {
			n = len(fields)
		} else {
			fields = fields[:0]
			for i := 0; i < n; i++ {
				// Distinct names, as HSET keeps them; random order.
				name := []byte(fmt.Sprintf("f%03d", rng.Intn(1000)*12+i))
				fields = append(fields, HashField{Name: name, Value: bytes.Repeat([]byte{byte(i)}, rng.Intn(40))})
			}
		}
		want := encodeHashFieldsRef(fields)
		buf = AppendHashFields(buf[:0], fields)
		if !bytes.Equal(buf, want) {
			t.Fatalf("round %d: encoded % x\nwant    % x", round, buf, want)
		}
		if round == 0 && !bytes.Equal(buf, golden) {
			t.Fatalf("encoded % x, want % x", buf, golden)
		}
		if !slices.IsSortedFunc(fields, func(a, b HashField) int { return bytes.Compare(a.Name, b.Name) }) {
			t.Fatalf("round %d: fields left unsorted", round)
		}
		var err error
		if decoded, err = DecodeHashFields(decoded[:0], buf); err != nil {
			t.Fatalf("round %d: decode: %v", round, err)
		}
		if len(decoded) != n {
			t.Fatalf("round %d: decoded %d fields, want %d", round, len(decoded), n)
		}
		for i := range decoded {
			if !bytes.Equal(decoded[i].Name, fields[i].Name) || !bytes.Equal(decoded[i].Value, fields[i].Value) {
				t.Fatalf("round %d field %d: %q=%q, want %q=%q", round, i, decoded[i].Name, decoded[i].Value, fields[i].Name, fields[i].Value)
			}
		}
	}
	for _, bad := range [][]byte{nil, {1}, {1, 0}, {1, 0, 1, 0, 'a', 9, 0, 0, 0}, append(golden[:len(golden):len(golden)], 0)} {
		if _, err := DecodeHashFields(nil, bad); err == nil {
			t.Errorf("malformed payload % x decoded", bad)
		}
	}
}
