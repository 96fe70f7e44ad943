package shard

import (
	"errors"
	"testing"
)

// collideHash maps both named keys to one slot and everything else
// through the real hash — the two keys collide, route to the same
// shard, and the rest of the store behaves normally.
func collideHash(a, b string, h uint64) func(string) uint64 {
	return func(s string) uint64 {
		if s == a || s == b {
			return h
		}
		return HashKey(s)
	}
}

// TestSetCollision pins the Set clobber fix: with a hash that maps every
// key to one slot, a Set of a second key must fail with ErrHashCollision
// and leave the first key's record intact — the old unchecked put
// silently destroyed it and answered OK.
func TestSetCollision(t *testing.T) {
	st := openStore(t, 1)
	defer st.Close()
	st.hash = func(string) uint64 { return 42 }

	if err := st.Set("alpha", "one"); err != nil {
		t.Fatalf("Set alpha: %v", err)
	}
	if err := st.Set("beta", "two"); !errors.Is(err, ErrHashCollision) {
		t.Fatalf("Set of colliding key: %v, want ErrHashCollision", err)
	}
	if v, err := st.Get("alpha"); err != nil || v != "one" {
		t.Fatalf("alpha after colliding Set = %q, %v", v, err)
	}
	if _, err := st.Get("beta"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get beta: %v", err)
	}
	// Overwriting the SAME key is the normal update path and must work.
	if err := st.Set("alpha", "updated"); err != nil {
		t.Fatalf("Set alpha update: %v", err)
	}
	if v, _ := st.Get("alpha"); v != "updated" {
		t.Fatalf("alpha = %q after update", v)
	}
}

// TestMSetCollisionSingleShard covers the single-shard MSet transaction:
// a colliding pair aborts the whole batch, destroying nothing.
func TestMSetCollisionSingleShard(t *testing.T) {
	st := openStore(t, 1)
	defer st.Close()
	st.hash = func(string) uint64 { return 42 }

	if err := st.Set("alpha", "one"); err != nil {
		t.Fatal(err)
	}
	err := st.MSet([]string{"beta"}, []string{"x"})
	if !errors.Is(err, ErrHashCollision) {
		t.Fatalf("MSet of colliding key: %v, want ErrHashCollision", err)
	}
	if v, err := st.Get("alpha"); err != nil || v != "one" {
		t.Fatalf("alpha after colliding MSet = %q, %v", v, err)
	}
	if err := st.MSet([]string{"alpha"}, []string{"two"}); err != nil {
		t.Fatalf("same-key MSet update: %v", err)
	}
}

// TestMSetCollisionCrossShard: the cross-shard prepare phase detects the
// collision before the commit point, so the whole MSET aborts — no shard
// applies its pairs and no intent records survive.
func TestMSetCollisionCrossShard(t *testing.T) {
	st := openStore(t, 3)
	defer st.Close()
	st.hash = collideHash("col-a", "col-b", 77)

	if err := st.Set("col-b", "occupied"); err != nil {
		t.Fatal(err)
	}
	keyB := pickKeyOffShard(st, st.ShardOf("col-a"), "other-")
	err := st.MSet([]string{"col-a", keyB}, []string{"va", "vb"})
	if !errors.Is(err, ErrHashCollision) {
		t.Fatalf("cross-shard MSet with collision: %v, want ErrHashCollision", err)
	}
	if v, gerr := st.Get("col-b"); gerr != nil || v != "occupied" {
		t.Fatalf("col-b after aborted MSet = %q, %v", v, gerr)
	}
	if _, gerr := st.Get(keyB); !errors.Is(gerr, ErrNotFound) {
		t.Fatalf("aborted MSet applied %s: %v", keyB, gerr)
	}
	for k := 0; k < st.NShards(); k++ {
		if n := stageLen(t, st, k); n != 0 {
			t.Fatalf("shard %d: %d intents survive the abort", k, n)
		}
	}
}

// TestRollForwardSkipsCollision: recovery's roll-forward meets a
// prepared pair whose slot a different key has taken (a write that
// landed after the prepare). It must skip that pair — never clobber the
// newer record, never fail recovery — and still apply the rest.
func TestRollForwardSkipsCollision(t *testing.T) {
	st := openStore(t, 3)
	defer st.Close()
	st.hash = collideHash("col-a", "col-b", 77)

	ka := st.ShardOf("col-a")
	keyB := pickKeyOffShard(st, ka, "fwd-")
	kb := st.ShardOf(keyB)
	if err := st.Set("col-b", "occupied"); err != nil {
		t.Fatal(err)
	}
	recA, _ := EncodeKV("col-a", "va")
	recB, _ := EncodeKV(keyB, "vb")
	mask := uint64(1<<uint(ka) | 1<<uint(kb))
	stagePut(t, st, ka, 21, appendIntent(nil, statePrepared, mask, [][]byte{recA}))
	stagePut(t, st, kb, 21, appendIntent(nil, statePrepared, mask, [][]byte{recB}))

	skipsBefore := telXCollisionSkips.Value()
	commits, aborts, err := st.resolveIntents()
	if err != nil {
		t.Fatalf("resolveIntents: %v", err)
	}
	if commits != 1 || aborts != 0 {
		t.Fatalf("commits=%d aborts=%d, want 1/0", commits, aborts)
	}
	if got := telXCollisionSkips.Value() - skipsBefore; got != 1 {
		t.Fatalf("collision skips = %d, want 1", got)
	}
	// The colliding pair was skipped: col-b keeps its record, col-a never
	// appears.
	if v, gerr := st.Get("col-b"); gerr != nil || v != "occupied" {
		t.Fatalf("col-b after roll-forward = %q, %v", v, gerr)
	}
	if _, gerr := st.Get("col-a"); !errors.Is(gerr, ErrNotFound) {
		t.Fatalf("skipped pair visible: %v", gerr)
	}
	// The non-colliding participant still rolled forward.
	if v, gerr := st.Get(keyB); gerr != nil || v != "vb" {
		t.Fatalf("%s after roll-forward = %q, %v", keyB, v, gerr)
	}
	for k := 0; k < st.NShards(); k++ {
		if n := stageLen(t, st, k); n != 0 {
			t.Fatalf("shard %d: %d intents survive resolution", k, n)
		}
	}
}
