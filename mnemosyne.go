// Package mnemosyne is a Go reproduction of "Mnemosyne: Lightweight
// Persistent Memory" (Volos, Tack, Swift — ASPLOS 2011): a programming
// interface for storage-class memory exposing persistent regions,
// persistence primitives, a persistent heap, tornbit raw word logs, and
// durable memory transactions, over a software SCM emulator with the
// paper's performance and failure model.
//
// # Quick start
//
//	pm, err := mnemosyne.Open(mnemosyne.Config{
//		DevicePath: "scm.img",  // survive process restarts
//		Dir:        "./pmem",   // region backing files
//	})
//	...
//	counter, created, _ := pm.Static("counter", 8) // a pstatic variable
//	mem := pm.Memory()
//	if created {
//		mnemosyne.StoreDurable(mem, counter, 0)
//	}
//	_ = pm.Atomic(func(tx *mnemosyne.Tx) error {
//		tx.StoreU64(counter, tx.LoadU64(counter)+1)
//		return nil
//	})
//	_ = pm.Close()
//
// Persistent data is addressed with Addr values inside a reserved 1 TB
// virtual range, never with Go pointers: the garbage collector cannot
// trace a persistent heap, and the Addr type statically separates
// persistent references from volatile ones (the paper's `persistent`
// annotation). Durable transactions (Thread.Atomic) give atomic, durable,
// isolated in-place updates to anything in persistent memory; package
// internal/pds builds hash tables and trees on top of them.
//
// Crash behaviour follows the paper's failure model: writes are volatile
// in the emulated cache and write-combining buffers until flushed/fenced;
// Device().Crash(policy) simulates a power failure that loses a subset of
// in-flight writes, and re-Attach()ing recovers — replaying committed
// transactions and rolling partially created state back.
package mnemosyne

import (
	"repro/internal/core"
	"repro/internal/mtm"
	"repro/internal/pgc"
	"repro/internal/pheap"
	"repro/internal/pmem"
	"repro/internal/rawl"
	"repro/internal/region"
	"repro/internal/scm"
	"repro/internal/shard"
)

// Config assembles a persistent-memory instance. See core.Config.
type Config = core.Config

// PM is an open persistent-memory instance.
type PM = core.PM

// Addr is an address in persistent memory. Nil is the persistent null.
type Addr = pmem.Addr

// Nil is the persistent null address.
const Nil = pmem.Nil

// Base is the start of the reserved persistent address range.
const Base = pmem.Base

// Memory is the persistence-primitive interface: Load/Store/WTStore/
// Flush/Fence at persistent addresses (Table 3 of the paper).
type Memory = pmem.Memory

// Thread is a per-goroutine durable-transaction context.
type Thread = mtm.Thread

// Tx is an executing durable memory transaction.
type Tx = mtm.Tx

// ReadTx is an executing slot-free snapshot read transaction (TM.View /
// PM.View): optimistic reads against the commit clock with no thread
// lease, no log record and no fence, so unbounded readers run in
// parallel with writers.
type ReadTx = mtm.ReadTx

// Reader is the transactional read interface implemented by both Tx and
// ReadTx. Read-side code written against Reader runs identically inside
// Atomic and View.
type Reader = mtm.Reader

// Writer is the full transactional interface — Reader plus transactional
// stores — implemented by Tx only.
type Writer = mtm.Writer

// TM is the durable-transaction system (PM.TM), for callers that need
// thread leasing or recovery state below the PM convenience surface.
type TM = mtm.TM

// TMConfig configures a transaction system opened directly over a region
// runtime (servers embedding their own stack use core.Config instead).
type TMConfig = mtm.Config

// TMStats is a point-in-time snapshot of transaction-system counters.
type TMStats = mtm.StatsSnapshot

// Allocator is a persistent-heap handle (pmalloc/pfree).
type Allocator = pheap.Allocator

// Log is a tornbit raw word log.
type Log = rawl.Log

// Device is the emulated SCM device.
type Device = scm.Device

// Mem is the concrete per-goroutine Memory implementation.
type Mem = region.Mem

// GCReport summarizes a persistent-heap garbage collection (PM.Collect).
type GCReport = pgc.Report

// Open creates or reincarnates a persistent-memory instance.
func Open(cfg Config) (*PM, error) { return core.Open(cfg) }

// Attach rebuilds the stack over an existing device, e.g. after a
// simulated crash.
func Attach(dev *Device, cfg Config) (*PM, error) { return core.Attach(dev, cfg) }

// ShardedConfig assembles a sharded store: N fully independent PM
// instances behind one key-value front end. The embedded Config applies
// per shard.
type ShardedConfig = shard.Config

// ShardedStore routes a key-value workload across independent PM shards,
// with atomic cross-shard MSET and concurrent per-shard recovery.
type ShardedStore = shard.Store

// OpenSharded creates or reincarnates a sharded store. Shards: 0 or 1
// opens a single instance laid out exactly like Open, so existing images
// remain drop-in; larger counts add one full Mnemosyne stack per shard.
func OpenSharded(cfg ShardedConfig) (*ShardedStore, error) { return shard.Open(cfg) }

// AttachSharded rebuilds a sharded store over existing devices (one per
// shard), e.g. after a simulated crash.
func AttachSharded(devs []*Device, cfg ShardedConfig) (*ShardedStore, error) {
	return shard.Attach(devs, cfg)
}

// StoreDurable atomically and durably updates a single persistent 64-bit
// variable (a single-variable consistent update).
func StoreDurable(m Memory, a Addr, v uint64) { pmem.StoreDurable(m, a, v) }

// ShadowUpdate performs a shadow update: write new data, fence, then
// atomically swing the reference.
func ShadowUpdate(m Memory, ref Addr, newVal uint64, writeNew func(Memory)) {
	pmem.ShadowUpdate(m, ref, newVal, writeNew)
}

// PublishRange flushes and fences [a, a+n), completing a batch of
// cacheable stores.
func PublishRange(m Memory, a Addr, n int64) { pmem.PublishRange(m, a, n) }

// Crash policies for Device.Crash, re-exported for tests and examples.
var (
	// DropAll loses every unpersisted write.
	DropAll scm.CrashPolicy = scm.DropAll{}
	// KeepAll persists every in-flight write.
	KeepAll scm.CrashPolicy = scm.KeepAll{}
)

// RandomCrash returns a reproducible random crash policy: each in-flight
// write survives independently with probability 1/2.
func RandomCrash(seed int64) scm.CrashPolicy { return scm.NewRandomPolicy(seed) }
