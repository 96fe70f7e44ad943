package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/kvserve"
	"repro/internal/pmem"
	"repro/internal/scm"
	"repro/internal/shard"
)

// stack is the real serving stack, built in-process through the same
// public constructors kvserved uses: scm.Open → core.Attach (or
// shard.Attach) → kvserve.New (or NewSharded) → ServeRESP on loopback TCP.
// Configuration is kvserved's defaults — redo logging, synchronous
// truncation, no read cache, every acked write durable at ack — except
// what the workload names (shards, device size, group commit) and that
// telemetry attribution and the tracer stay off.
type stack struct {
	w    *workload
	dir  string
	devs []*scm.Device

	pm  *core.PM     // unsharded
	st  *shard.Store // sharded
	srv *kvserve.Server

	addr   string
	served chan error // ServeRESP's return value
}

func (s *stack) coreConfig() core.Config {
	return core.Config{Dir: s.dir, DeviceSize: s.w.deviceSize, GroupCommit: s.w.groupCommit}
}

// openStack formats a fresh stack on devices of the given delay mode and
// starts serving. dir holds the region backing files.
func openStack(w *workload, mode scm.DelayMode, dir string) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &stack{w: w, dir: dir}
	for k := 0; k < w.shards; k++ {
		dev, err := scm.Open(scm.Config{Size: w.deviceSize, Mode: mode})
		if err != nil {
			return nil, err
		}
		s.devs = append(s.devs, dev)
	}
	if err := s.attach(); err != nil {
		return nil, err
	}
	return s, s.serve()
}

// attach builds the software stack over the devices: formatting on first
// use, recovering after a crash.
func (s *stack) attach() error {
	var err error
	if s.w.shards > 1 {
		s.st, err = shard.Attach(s.devs, shard.Config{Config: s.coreConfig(), Shards: s.w.shards})
		if err != nil {
			return err
		}
		s.srv, err = kvserve.NewSharded(s.st)
		return err
	}
	if s.pm, err = core.Attach(s.devs[0], s.coreConfig()); err != nil {
		return err
	}
	s.srv, err = kvserve.New(s.pm)
	return err
}

// serve starts ServeRESP on a fresh loopback TCP listener.
func (s *stack) serve() error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = l.Addr().String()
	s.served = make(chan error, 1)
	go func(srv *kvserve.Server) { s.served <- srv.ServeRESP(l) }(s.srv)
	return nil
}

// stopServing closes the server and waits for the accept loop to return.
func (s *stack) stopServing() error {
	if err := s.srv.Close(); err != nil {
		return err
	}
	return <-s.served
}

// pms lists the stack's persistent-memory instances, one per shard.
func (s *stack) pms() []*core.PM {
	if s.st == nil {
		return []*core.PM{s.pm}
	}
	pms := make([]*core.PM, s.st.NShards())
	for k := range pms {
		pms[k] = s.st.Shard(k).PM
	}
	return pms
}

// crashAndRecover is one power failure and reboot, the soak tests' recipe:
// sessions drained, truncation halted, a random subset of every device's
// unflushed lines and unfenced write-through words discarded by the
// emulator, then the whole software stack reattached. It returns how long
// the attach took and serves again on loopback.
func (s *stack) crashAndRecover(seed int64) (time.Duration, error) {
	if err := s.stopServing(); err != nil {
		return 0, err
	}
	for _, pm := range s.pms() {
		pm.TM().StopTruncation()
	}
	for k, dev := range s.devs {
		dev.Crash(scm.NewRandomPolicy(seed + int64(k)))
	}
	// The dead incarnation's region file handles would otherwise pile up
	// across cycles; device contents are untouched by closing them.
	for _, pm := range s.pms() {
		if err := pm.Runtime().Close(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	if err := s.attach(); err != nil {
		return 0, fmt.Errorf("attach after crash: %w", err)
	}
	took := time.Since(start)
	return took, s.serve()
}

// close shuts the stack down cleanly.
func (s *stack) close() error {
	if err := s.stopServing(); err != nil {
		return err
	}
	if s.st != nil {
		return s.st.Close()
	}
	return s.pm.Close()
}

// deviceStats sums the device counters over the shards.
func (s *stack) deviceStats() scm.StatsSnapshot {
	var sum scm.StatsSnapshot
	for _, dev := range s.devs {
		d := dev.Snapshot()
		sum.Stores += d.Stores
		sum.WTStores += d.WTStores
		sum.Flushes += d.Flushes
		sum.Fences += d.Fences
		sum.BytesWT += d.BytesWT
		sum.AccountedNs += d.AccountedNs
	}
	return sum
}

// heapStats walks every shard's persistent heap. The stack must be
// quiesced.
func (s *stack) heapStats() (liveBytes int64, freeSuperblocks int) {
	for _, pm := range s.pms() {
		pm.Heap().ForEachAllocated(func(_ pmem.Addr, size int64) bool {
			liveBytes += size
			return true
		})
		freeSuperblocks += pm.Heap().Stats().FreeSuperblocks
	}
	return liveBytes, freeSuperblocks
}
