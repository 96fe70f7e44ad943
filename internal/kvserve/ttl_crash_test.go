package kvserve

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crashpoint"
	"repro/internal/mtm"
	"repro/internal/scm"
)

// ttlCrashBase is the scripted clock's epoch for the crash exploration.
const ttlCrashBase = int64(1) << 40

// ttlStep is one step of the TTL crash workload: a command (RESP-shaped
// argv, so SET EX is reachable) or a wheel sweep, then a scripted clock
// advance. The advance happens after the command is acknowledged, so
// every replay sees the identical deadline arithmetic.
type ttlStep struct {
	args []string      // nil: run a sweep instead of a command
	adv  time.Duration // clock advance after the step is acknowledged
}

// ttlCrashScript exercises every deadline transition under crash points:
// stamping (SET EX, EXPIRE), clearing (PERSIST, overwrite), passing
// (clock advance), and physical reclamation (sweep).
var ttlCrashScript = []ttlStep{
	{args: []string{"SET", "a", "va"}},
	{args: []string{"SET", "b", "vb", "EX", "5"}},
	{args: []string{"SET", "c", "vc", "EX", "1000"}},
	{args: []string{"EXPIRE", "a", "8"}, adv: 10 * time.Second}, // a and b are now past due
	{args: nil}, // sweep reclaims a and b
	{args: []string{"SET", "d", "vd"}},
	{args: []string{"PERSIST", "c"}},
	{args: []string{"SET", "b", "vb2"}}, // fresh b, no deadline
}

// ttlCrashKeys is every key the script touches.
var ttlCrashKeys = []string{"a", "b", "c", "d"}

type ttlModelRec struct {
	val string
	exp int64
}

// ttlClockAfter returns the scripted clock's value once m steps have
// been acknowledged (the advance of the m-th step not yet applied when a
// crash lands inside it — but crash points only fire inside commands, so
// the clock at step m is exactly base plus the first m advances... of the
// acknowledged steps).
func ttlClockAfter(m int) int64 {
	now := ttlCrashBase
	for i := 0; i < m && i < len(ttlCrashScript); i++ {
		now += int64(ttlCrashScript[i].adv)
	}
	return now
}

// ttlModelAfter folds the first m steps into the expected record map,
// mirroring the engine's visibility rules: EXPIRE and PERSIST only touch
// keys that are live at the step's clock, SET always overwrites, and a
// sweep changes nothing visible.
func ttlModelAfter(m int) map[string]ttlModelRec {
	st := map[string]ttlModelRec{}
	now := ttlCrashBase
	live := func(k string) (ttlModelRec, bool) {
		r, ok := st[k]
		if !ok || (r.exp != 0 && r.exp <= now) {
			return ttlModelRec{}, false
		}
		return r, true
	}
	for i := 0; i < m && i < len(ttlCrashScript); i++ {
		stp := ttlCrashScript[i]
		if stp.args != nil {
			switch stp.args[0] {
			case "SET":
				exp := int64(0)
				if len(stp.args) == 5 {
					n, _ := strconv.ParseInt(stp.args[4], 10, 64)
					exp = now + n*int64(time.Second)
				}
				st[stp.args[1]] = ttlModelRec{val: stp.args[2], exp: exp}
			case "EXPIRE":
				if r, ok := live(stp.args[1]); ok {
					n, _ := strconv.ParseInt(stp.args[2], 10, 64)
					r.exp = now + n*int64(time.Second)
					st[stp.args[1]] = r
				}
			case "PERSIST":
				if r, ok := live(stp.args[1]); ok {
					r.exp = 0
					st[stp.args[1]] = r
				}
			}
		}
		now += int64(stp.adv)
	}
	return st
}

// ttlWantReply is the expected GET reply for key k under model state st
// at instant now.
func ttlWantReply(st map[string]ttlModelRec, k string, now int64) string {
	if r, ok := st[k]; ok && (r.exp == 0 || r.exp > now) {
		return "$" + r.val
	}
	return "(nil)"
}

// TestCrashPointsTTL explores crash points of the TTL machinery: record
// deadline and wheel entry are written in one transaction, sweeps retire
// entries atomically with their records, and recovery re-arms the
// sweeper. The oracle, checked after every crash against the scripted
// clock: an expired key never resurrects, an unexpired key never
// vanishes — the store matches the model after done or done+1 steps,
// before AND after a full post-recovery sweep.
func TestCrashPointsTTL(t *testing.T) {
	workload := func() (*crashpoint.Run, error) {
		cfg := core.Config{DeviceSize: 8 << 20, HeapSize: 256 << 10, Threads: 2}
		dev, err := scm.Open(scm.Config{Size: cfg.DeviceSize, Mode: scm.DelayOff})
		if err != nil {
			return nil, err
		}
		if cfg.Dir, err = os.MkdirTemp("", "kvserve-ttlcrash-*"); err != nil {
			return nil, err
		}
		done := 0
		return &crashpoint.Run{
			Dev: dev,
			Body: func() error {
				pm, err := core.Attach(dev, cfg)
				if err != nil {
					return err
				}
				s, err := New(pm)
				if err != nil {
					return err
				}
				now := ttlCrashBase
				s.now = func() int64 { return now }
				for i, stp := range ttlCrashScript {
					if stp.args == nil {
						if _, err := s.sweepAll(now); err != nil {
							return fmt.Errorf("sweep at step %d: %w", i, err)
						}
					} else if reply := show(s.do(stp.args...)); strings.HasPrefix(reply, "-") {
						return fmt.Errorf("%v: %s", stp.args, reply)
					}
					done = i + 1
					now += int64(stp.adv)
				}
				return nil
			},
			Check: func() error {
				defer os.RemoveAll(cfg.Dir)
				pm, err := core.Attach(dev, cfg)
				if err != nil {
					return fmt.Errorf("stack not reopenable after %d acked steps: %w", done, err)
				}
				s, err := New(pm)
				if err != nil {
					return err
				}
				checkNow := ttlClockAfter(done)
				s.now = func() int64 { return checkNow }
				if err := pm.Atomic(func(tx *mtm.Tx) error {
					return s.store.nodes[0].tree.CheckInvariants(tx)
				}); err != nil {
					return fmt.Errorf("B+ tree invariants after %d acked steps: %w", done, err)
				}
				// The visible store must equal the model after done or done+1
				// steps, judged at the recovered clock.
				match := func(m int) string {
					want := ttlModelAfter(m)
					for _, k := range ttlCrashKeys {
						wantReply := ttlWantReply(want, k, checkNow)
						if got := show(s.do("GET", k)); got != wantReply {
							return fmt.Sprintf("key %q: got %q, want %q at %d applied steps", k, got, wantReply, m)
						}
					}
					return ""
				}
				var lastDiff string
				matched := -1
				for _, m := range []int{done, done + 1} {
					if m > len(ttlCrashScript) {
						continue
					}
					if diff := match(m); diff == "" {
						matched = m
						break
					} else {
						lastDiff = diff
					}
				}
				if matched < 0 {
					return fmt.Errorf("store matches neither %d nor %d applied steps: %s", done, done+1, lastDiff)
				}
				// Recovery must leave the wheel sweepable, and sweeping must
				// not change what is visible: it only reclaims what the
				// deadlines already hide.
				if _, err := s.sweepAll(checkNow); err != nil {
					return fmt.Errorf("post-recovery sweep: %w", err)
				}
				if diff := match(matched); diff != "" {
					return fmt.Errorf("post-recovery sweep changed visible state: %s", diff)
				}
				if err := pm.Atomic(func(tx *mtm.Tx) error {
					return s.store.nodes[0].tree.CheckInvariants(tx)
				}); err != nil {
					return fmt.Errorf("B+ tree invariants after post-recovery sweep: %w", err)
				}
				return nil
			},
		}, nil
	}

	rep, err := crashpoint.Explore(workload, crashpoint.Options{
		Schedule: crashpoint.TestSchedule(testing.Short(), 24),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		for _, f := range rep.Failures {
			t.Errorf("%v", f)
		}
		t.Fatalf("TTL expiry oracle failed at %d of %d crash points (%s)",
			len(rep.Failures), rep.Points, rep)
	}
	t.Logf("kvserve ttl: %s", rep)
}
