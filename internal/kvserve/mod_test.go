package kvserve

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pds"
	"repro/internal/scm"
)

// modTestServer attaches a MOD-backed server over dev (reused across
// simulated crashes).
func modTestServer(t *testing.T, dev *scm.Device, dir string) (*core.PM, *Server) {
	t.Helper()
	pm, err := core.Attach(dev, core.Config{DeviceSize: 16 << 20, HeapSize: 1 << 20, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewBackend(pm, pds.BackendMOD)
	if err != nil {
		t.Fatal(err)
	}
	return pm, s
}

// TestModBackendServer drives the command engine on the MOD shadow-update
// backend: the full string/hash surface works thread-free, TTL commands
// are refused with a clear error, STATS reports the single-fence ratio,
// synced state survives a crash, and an instance-wide ModSweep reclaims
// superseded shadow blocks without disturbing live data.
func TestModBackendServer(t *testing.T) {
	dev, err := scm.Open(scm.Config{Size: 16 << 20, Mode: scm.DelayOff})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pm, s := modTestServer(t, dev, dir)

	expect := func(line, want string) {
		t.Helper()
		if got := s.dispatch(line); got != want {
			t.Fatalf("%q: got %q, want %q", line, got, want)
		}
	}
	expect("SET alpha one", "OK")
	expect("SET beta two words here", "OK")
	expect("GET alpha", "VALUE one")
	expect("GET beta", "VALUE two words here")
	expect("MSET k1 v1 k2 v2 k3 v3", "OK")
	expect("MGET k1 nosuch k3", "VALUE v1\nMISSING\nVALUE v3")
	expect("DEL k2", "OK")
	expect("DEL k2", "MISSING")
	expect("COUNT", "COUNT 4")
	expect("SET alpha rewritten", "OK")
	expect("GET alpha", "VALUE rewritten")

	// Hash records ride the same putRecord path.
	if got := s.dispatch("HSET h f1 x"); got != "1" {
		t.Fatalf("HSET: %q", got)
	}
	if got := s.dispatch("HGET h f1"); got != "VALUE x" {
		t.Fatalf("HGET: %q", got)
	}

	// TTL-carrying commands are refused on this backend; plain TTL reads
	// still answer (no deadline: -1).
	for _, line := range []string{"EXPIRE alpha 100", "PEXPIRE alpha 100"} {
		if got := s.dispatch(line); !strings.HasPrefix(got, "ERROR") ||
			!strings.Contains(got, "mod backend") {
			t.Fatalf("%q: got %q, want mod-backend refusal", line, got)
		}
	}
	expect("TTL alpha", "-1")

	stats := s.dispatch("STATS")
	if !strings.Contains(stats, "backend=mod") || !strings.Contains(stats, "fences_per_op=1.00") {
		t.Fatalf("STATS missing mod fields: %s", stats)
	}

	// Deferred reclamation: superseded shadow paths are garbage until the
	// sweep, live data survives it, and a second sweep finds nothing.
	for i := 0; i < 40; i++ {
		expect(fmt.Sprintf("SET churn value%d", i), "OK")
	}
	rep, err := pm.ModSweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Freed == 0 {
		t.Fatal("sweep after 40 overwrites freed nothing")
	}
	expect("GET churn", "VALUE value39")
	expect("GET alpha", "VALUE rewritten")
	rep2, err := pm.ModSweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Freed != 0 {
		t.Fatalf("second sweep freed %d blocks; first was incomplete", rep2.Freed)
	}

	// Clean shutdown syncs the last root swap; a crash then loses nothing.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	dev.Crash(scm.DropAll{})
	_, s2 := modTestServer(t, dev, dir)
	for line, want := range map[string]string{
		"GET alpha": "VALUE rewritten",
		"GET beta":  "VALUE two words here",
		"GET churn": "VALUE value39",
		"GET k2":    "MISSING",
		"COUNT":     "COUNT 6",
	} {
		if got := s2.dispatch(line); got != want {
			t.Fatalf("after crash, %q: got %q, want %q", line, got, want)
		}
	}
}
