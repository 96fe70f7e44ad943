package kvserve

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/crashpoint"
	"repro/internal/mtm"
	"repro/internal/scm"
)

// kvScript is the deterministic command sequence of the crash workload.
// Every command is acknowledged (OK or a DEL count) before the next is issued,
// so the durability contract covers a strict prefix plus at most the one
// command in flight at the crash.
var kvScript = []string{
	"SET alpha 1",
	"SET beta two",
	"SET gamma 333",
	"DEL beta",
	"SET alpha rewritten",
	"SET delta dddddddddddddddddddddddddddddddd",
	"DEL nosuch",
	"SET epsilon 5",
}

// kvStateAfter folds the first m script commands into the expected map.
func kvStateAfter(m int) map[string]string {
	st := map[string]string{}
	for i := 0; i < m && i < len(kvScript); i++ {
		f := strings.SplitN(kvScript[i], " ", 3)
		switch f[0] {
		case "SET":
			st[f[1]] = f[2]
		case "DEL":
			delete(st, f[1])
		}
	}
	return st
}

// kvKeys is every key the script touches, in script order.
func kvKeys() []string {
	var keys []string
	seen := map[string]bool{}
	for _, cmd := range kvScript {
		k := strings.SplitN(cmd, " ", 3)[1]
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// TestCrashPointsKVServe explores crash points of the full stack under the
// key-value server: SCM, regions, heap, transactions and the persistent
// B+ tree all reincarnate, every acknowledged SET/DEL is present, the one
// in-flight command is atomically all-or-nothing, and the tree's
// invariants hold.
func TestCrashPointsKVServe(t *testing.T) {
	workload := func() (*crashpoint.Run, error) {
		cfg := core.Config{DeviceSize: 8 << 20, HeapSize: 256 << 10, Threads: 2}
		dev, err := scm.Open(scm.Config{Size: cfg.DeviceSize, Mode: scm.DelayOff})
		if err != nil {
			return nil, err
		}
		// Each run owns its region-file directory: Body and Check reattach
		// over the same files, but runs must not see a predecessor's.
		if cfg.Dir, err = os.MkdirTemp("", "kvserve-crash-*"); err != nil {
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
				for i, cmd := range kvScript {
					if reply := show(s.do(strings.Fields(cmd)...)); strings.HasPrefix(reply, "-") {
						return fmt.Errorf("%q: %s", cmd, reply)
					}
					done = i + 1
				}
				return nil
			},
			Check: func() error {
				defer os.RemoveAll(cfg.Dir)
				pm, err := core.Attach(dev, cfg)
				if err != nil {
					return fmt.Errorf("stack not reopenable after %d acked commands: %w", done, err)
				}
				s, err := New(pm)
				if err != nil {
					return err
				}
				if err := pm.Atomic(func(tx *mtm.Tx) error {
					return s.store.nodes[0].tree.CheckInvariants(tx)
				}); err != nil {
					return fmt.Errorf("B+ tree invariants after %d acked commands: %w", done, err)
				}
				// The store must equal the script's effect after done or
				// done+1 commands.
				var lastDiff string
				for _, m := range []int{done, done + 1} {
					if m > len(kvScript) {
						continue
					}
					want := kvStateAfter(m)
					diff := ""
					for _, k := range kvKeys() {
						reply := show(s.do("GET", k))
						wantReply := "(nil)"
						if v, ok := want[k]; ok {
							wantReply = "$" + v
						}
						if reply != wantReply {
							diff = fmt.Sprintf("key %q: got %q, want %q at %d applied commands", k, reply, wantReply, m)
							break
						}
					}
					if diff == "" {
						if reply := show(s.do("COUNT")); reply != fmt.Sprintf(":%d", len(want)) {
							return fmt.Errorf("COUNT %s, want %d live keys", reply, len(want))
						}
						return nil
					}
					lastDiff = diff
				}
				return fmt.Errorf("store matches neither %d nor %d applied commands: %s", done, done+1, lastDiff)
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
		t.Fatalf("kvserve durability oracle failed at %d of %d crash points (%s)",
			len(rep.Failures), rep.Points, rep)
	}
	t.Logf("kvserve: %s", rep)
}
