package kvserve

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mtm"
	"repro/internal/pds"
)

// ttlClock is a scripted expiry clock: tests advance it explicitly, so
// deadline comparisons are exact instead of racing the wall clock.
type ttlClock struct{ ns atomic.Int64 }

func (c *ttlClock) now() int64              { return c.ns.Load() }
func (c *ttlClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// ttlBase is an arbitrary positive epoch; all fake-clock deadlines are
// relative to it.
const ttlBase = int64(1) << 40

// newTTLServer builds an unsharded server on a fake clock WITHOUT
// starting the network loops, so no background sweeper runs: every reap
// and sweep in these tests is explicit and deterministic.
func newTTLServer(t *testing.T, cfg core.Config) (*Server, *core.PM, *ttlClock) {
	t.Helper()
	pm, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(pm)
	if err != nil {
		t.Fatal(err)
	}
	clk := &ttlClock{}
	clk.ns.Store(ttlBase)
	s.now = clk.now
	return s, pm, clk
}

// expectReply runs one command through the engine and compares its reply,
// rendered by show.
func expectReply(t *testing.T, s *Server, want string, args ...string) {
	t.Helper()
	if got := show(s.do(args...)); got != want {
		t.Fatalf("%v -> %q, want %q", args, got, want)
	}
}

// TestTTLSemantics covers the command surface against a scripted clock:
// EXPIRE/PEXPIRE stamp deadlines, TTL/PTTL round up, PERSIST clears,
// SET overwrites clear, EXPIRE with a non-positive ttl deletes.
func TestTTLSemantics(t *testing.T) {
	s, _, clk := newTTLServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})

	expectReply(t, s, "+OK", "SET", "k", "v")
	expectReply(t, s, ":-1", "TTL", "k") // no deadline
	expectReply(t, s, ":1", "EXPIRE", "k", "100")
	expectReply(t, s, ":100", "TTL", "k")
	expectReply(t, s, ":100000", "PTTL", "k")

	clk.advance(40 * time.Second)
	expectReply(t, s, ":60", "TTL", "k")
	// 500ms into a second: TTL rounds the sliver up, never down to 0.
	clk.advance(59*time.Second + 500*time.Millisecond)
	expectReply(t, s, ":1", "TTL", "k")
	expectReply(t, s, ":500", "PTTL", "k")
	expectReply(t, s, "$v", "GET", "k")

	// PERSIST rescues the key right before its deadline.
	expectReply(t, s, ":1", "PERSIST", "k")
	expectReply(t, s, ":0", "PERSIST", "k") // already persistent
	clk.advance(time.Hour)
	expectReply(t, s, "$v", "GET", "k")
	expectReply(t, s, ":-1", "TTL", "k")

	// PEXPIRE uses milliseconds.
	expectReply(t, s, ":1", "PEXPIRE", "k", "2500")
	expectReply(t, s, ":3", "TTL", "k") // 2.5s rounds up
	expectReply(t, s, ":2500", "PTTL", "k")

	// SET overwrites to a fresh record without a deadline.
	expectReply(t, s, "+OK", "SET", "k", "v2")
	expectReply(t, s, ":-1", "TTL", "k")

	// SET EX / PX stamp deadlines at write time.
	expectReply(t, s, "+OK", "SET", "ke", "v", "EX", "10")
	expectReply(t, s, ":10", "TTL", "ke")
	expectReply(t, s, "+OK", "SET", "kp", "v", "PX", "1500")
	expectReply(t, s, ":1500", "PTTL", "kp")
	expectReply(t, s, ":2", "TTL", "kp")

	// Missing keys: EXPIRE/PERSIST answer 0, TTL answers -2.
	expectReply(t, s, ":0", "EXPIRE", "nosuch", "5")
	expectReply(t, s, ":0", "PERSIST", "nosuch")
	expectReply(t, s, ":-2", "TTL", "nosuch")

	// Non-positive ttl deletes immediately (redis semantics).
	expectReply(t, s, ":1", "EXPIRE", "k", "0")
	expectReply(t, s, "(nil)", "GET", "k")
	expectReply(t, s, ":-2", "TTL", "k")

	// Bad arguments.
	if got := show(s.do("EXPIRE", "ke", "soon")); got != `-ERR invalid expire time "soon"` {
		t.Fatalf("EXPIRE soon -> %q", got)
	}
	if got := show(s.do("SET", "ke", "v", "EX", "-3")); got != `-ERR invalid expire time "-3"` {
		t.Fatalf("SET EX -3 -> %q", got)
	}
	if got := show(s.do("SET", "ke", "v", "ZZ", "3")); got != `-ERR unknown SET option "ZZ"` {
		t.Fatalf("SET ZZ -> %q", got)
	}
}

// TestTTLExpiredMasking drives a deadline past and checks every read
// path treats the unswept record as absent: GET, MGET, TTL, COUNT, and
// DEL's return value — and that the lazy-reap hint a read queues
// physically reclaims the slot.
func TestTTLExpiredMasking(t *testing.T) {
	s, pm, clk := newTTLServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})

	expectReply(t, s, "+OK", "SET", "dies", "soon", "EX", "5")
	expectReply(t, s, "+OK", "SET", "lives", "on")
	expectReply(t, s, ":2", "COUNT")

	clk.advance(6 * time.Second)
	expectReply(t, s, "(nil)", "GET", "dies")
	expectReply(t, s, ":-2", "TTL", "dies")
	expectReply(t, s, ":1", "COUNT")
	expectReply(t, s, "*[$on (nil)]", "MGET", "lives", "dies")

	// The GET queued a lazy-reap hint; running it must physically delete
	// the record (tree slot empty), not just mask it.
	select {
	case it := <-s.reapCh:
		s.reapOne(it)
	default:
		t.Fatal("expired read queued no reap hint")
	}
	if err := pm.View(func(r *mtm.ReadTx) error {
		if _, err := s.store.nodes[0].tree.Get(r, s.hash([]byte("dies"))); err != pds.ErrNotFound {
			return fmt.Errorf("tree slot for expired key: %v, want ErrNotFound", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// DEL of an expired-but-unswept record counts it as absent.
	expectReply(t, s, "+OK", "SET", "dies2", "v", "PX", "100")
	clk.advance(time.Second)
	expectReply(t, s, ":0", "DEL", "dies2")
	expectReply(t, s, "(nil)", "GET", "dies2")
}

// TestTTLSweep exercises the wheel sweeper: due entries retire their
// records in one transaction, future deadlines and persistent keys are
// untouched, and stale advisory entries (PERSIST, overwrite) never
// delete a live record.
func TestTTLSweep(t *testing.T) {
	s, pm, clk := newTTLServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})

	const dying = 10
	for i := 0; i < dying; i++ {
		expectReply(t, s, "+OK", "SET", fmt.Sprintf("d%d", i), "v", "EX", "5")
	}
	expectReply(t, s, "+OK", "SET", "future", "v", "EX", "1000")
	expectReply(t, s, "+OK", "SET", "forever", "v")

	// Stale-entry scenarios: both got wheel entries at +5s, then their
	// records' own deadlines were cleared. The sweep must unlink the
	// entries without touching the records.
	expectReply(t, s, "+OK", "SET", "rescued", "v", "EX", "5")
	expectReply(t, s, ":1", "PERSIST", "rescued")
	expectReply(t, s, "+OK", "SET", "rewritten", "v", "EX", "5")
	expectReply(t, s, "+OK", "SET", "rewritten", "v2")

	// Nothing due yet: the sweep is a no-op.
	if n, err := s.sweepAll(clk.now()); err != nil || n != 0 {
		t.Fatalf("premature sweep reclaimed %d, err %v", n, err)
	}

	clk.advance(6 * time.Second)
	n, err := s.sweepAll(clk.now())
	if err != nil {
		t.Fatal(err)
	}
	if n != dying {
		t.Fatalf("sweep reclaimed %d records, want %d", n, dying)
	}
	// Records physically gone, survivors intact.
	if err := pm.View(func(r *mtm.ReadTx) error {
		for i := 0; i < dying; i++ {
			if _, err := s.store.nodes[0].tree.Get(r, s.hash([]byte(fmt.Sprintf("d%d", i)))); err != pds.ErrNotFound {
				return fmt.Errorf("swept key d%d still in tree: %v", i, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	expectReply(t, s, "$v", "GET", "future")
	expectReply(t, s, "$v", "GET", "forever")
	expectReply(t, s, "$v", "GET", "rescued")
	expectReply(t, s, "$v2", "GET", "rewritten")
	expectReply(t, s, ":4", "COUNT")

	// A second sweep finds nothing: the due entries were freed, the stale
	// ones unlinked.
	if n, err := s.sweepAll(clk.now()); err != nil || n != 0 {
		t.Fatalf("second sweep reclaimed %d, err %v", n, err)
	}

	// The tree stays structurally sound through sweep deletions.
	if err := pm.Atomic(func(tx *mtm.Tx) error { return s.store.nodes[0].tree.CheckInvariants(tx) }); err != nil {
		t.Fatal(err)
	}
}

// TestTTLSurvivesRestart closes the stack and reincarnates it: deadlines
// are persistent state, so a live TTL keeps counting down against the
// same absolute clock, an elapsed one masks the key, and the recovered
// wheel still feeds the sweeper (ttlLive is rebuilt from the root cell).
func TestTTLSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{
		DevicePath: filepath.Join(dir, "scm.img"),
		Dir:        dir,
		DeviceSize: 64 << 20,
	}
	s, pm, clk := newTTLServer(t, cfg)
	expectReply(t, s, "+OK", "SET", "longttl", "v", "EX", "1000")
	expectReply(t, s, "+OK", "SET", "shortttl", "v", "EX", "5")
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}

	s2, pm2, clk2 := newTTLServer(t, cfg)
	defer pm2.Close()
	if !s2.store.Node(0).ttlLive.Load() {
		t.Fatal("recovered node not marked TTL-live despite a persisted wheel")
	}
	// Same epoch, 10 recovered seconds later: shortttl's deadline has
	// passed, longttl keeps its remaining time.
	clk2.ns.Store(clk.now() + 10*int64(time.Second))
	expectReply(t, s2, ":990", "TTL", "longttl")
	expectReply(t, s2, "$v", "GET", "longttl")
	expectReply(t, s2, "(nil)", "GET", "shortttl")
	// The recovered wheel drives the sweep without any new write.
	if n, err := s2.sweepAll(clk2.now()); err != nil || n != 1 {
		t.Fatalf("post-recovery sweep reclaimed %d, err %v", n, err)
	}
	expectReply(t, s2, ":1", "COUNT")
}

// TestTTLHashInteraction pins the TTL rules for hash records: HSET on a
// live key preserves its deadline, expiry applies to the whole hash, and
// an HSET landing on an expired hash starts a fresh one without a TTL.
func TestTTLHashInteraction(t *testing.T) {
	s, _, clk := newTTLServer(t, core.Config{Dir: t.TempDir(), DeviceSize: 64 << 20})

	expectReply(t, s, ":2", "HSET", "h", "f1", "v1", "f2", "v2")
	expectReply(t, s, ":1", "EXPIRE", "h", "100")
	expectReply(t, s, ":100", "TTL", "h")
	// Updating a field must not clear the hash's deadline.
	expectReply(t, s, ":1", "HSET", "h", "f3", "v3")
	expectReply(t, s, ":100", "TTL", "h")

	clk.advance(101 * time.Second)
	expectReply(t, s, "(nil)", "HGET", "h", "f1")
	expectReply(t, s, ":0", "HLEN", "h")
	expectReply(t, s, ":0", "COUNT")

	// Writing into the expired slot starts a fresh, persistent hash: the
	// dead fields must not resurrect alongside the new one.
	expectReply(t, s, ":1", "HSET", "h", "f9", "v9")
	expectReply(t, s, ":-1", "TTL", "h")
	expectReply(t, s, ":1", "HLEN", "h")
	expectReply(t, s, "(nil)", "HGET", "h", "f1")
	expectReply(t, s, "$v9", "HGET", "h", "f9")
}
