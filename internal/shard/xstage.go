package shard

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/mtm"
	"repro/internal/pds"
	"repro/internal/pmem"
	"repro/internal/scm"
)

// Cross-shard MSET atomicity.
//
// Every shard keeps a small persistent intent table (a pds.HashTable
// rooted at the "shard.xstage" static, created lazily on the first
// cross-shard MSET) mapping a transaction id to an intent record. A
// cross-shard MSET with participant set M runs three phases, each one
// local durable transaction per participant, each phase a barrier over
// ascending shard order:
//
//  1. prepare: every participant durably stores
//     {state=prepared, mask=M, its own pairs}.
//  2. apply: every participant, in ONE local transaction, puts its pairs
//     into the tree and rewrites its record to {state=applied, mask=M}.
//  3. cleanup: every participant deletes its record.
//
// Recovery (resolveIntents, run at Attach after every shard's own log
// replay) scans all intent tables and decides each transaction id once,
// for all shards:
//
//   - some shard applied        ⇒ commit. Apply never starts until every
//     prepare is durable, so each remaining participant holds either an
//     applied record (tree already updated — the apply transaction was
//     atomic), a prepared record carrying the pairs to roll forward, or
//     no record (it finished cleanup).
//   - every participant prepared ⇒ commit: the durable-everywhere point
//     had been reached, so roll every shard forward.
//   - otherwise                  ⇒ abort: some prepare never became
//     durable, no shard can have applied, delete the stragglers.
//
// Roll-forward applies a prepared shard's pairs and marks it applied
// before ANY record of that transaction is deleted, so a crash inside
// recovery re-reaches the same decision. The protocol gives cross-shard
// MSET all-or-nothing durability; it does not give cross-shard isolation
// (a reader between two apply transactions can observe one shard's pairs
// before another's — same as a pipelined reader racing a classic MSET on
// separate connections).
//
// Shards fail independently (each has its own device — its own power
// domain), so one participant can power-cut mid-protocol while the rest
// of the store keeps serving. The coordinator is still alive then, and
// it must not leave an UNDECIDED prepared record on any live shard:
// recovery's roll-forward would later reapply that record's stale pairs
// over writes acked after the cut. So on a power cut msetCross resolves
// the surviving participants inline before re-raising the failure —
// abort them if the cut landed before the last prepare was durable,
// finish applying them if it landed after. Only the dead shard is left
// for recovery, and its record covers only keys that route to it, which
// nothing can write until it is reattached (and Attach resolves intents
// before serving).

// Intent record states.
const (
	statePrepared = byte(1)
	stateApplied  = byte(2)
)

// appendIntent appends an intent-table record to dst: state, participant
// mask, then this shard's tree records (already in EncodeRecord form, so
// applying is hash(key)→record puts).
func appendIntent(dst []byte, state byte, mask uint64, recs [][]byte) []byte {
	n := 1 + 8 + 2
	for _, rec := range recs {
		n += 4 + len(rec)
	}
	dst = append(slices.Grow(dst, n), state)
	dst = binary.LittleEndian.AppendUint64(dst, mask)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(recs)))
	for _, rec := range recs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec)))
		dst = append(dst, rec...)
	}
	return dst
}

type intent struct {
	state byte
	mask  uint64
	recs  [][]byte
}

var errBadIntent = errors.New("shard: malformed intent record")

func decodeIntent(b []byte) (intent, error) {
	if len(b) < 11 {
		return intent{}, errBadIntent
	}
	it := intent{state: b[0]}
	for s := 0; s < 8; s++ {
		it.mask |= uint64(b[1+s]) << uint(8*s)
	}
	npairs := int(b[9]) | int(b[10])<<8
	off := 11
	for p := 0; p < npairs; p++ {
		if len(b) < off+4 {
			return intent{}, errBadIntent
		}
		l := int(b[off]) | int(b[off+1])<<8 | int(b[off+2])<<16 | int(b[off+3])<<24
		off += 4
		if l < 0 || len(b) < off+l {
			return intent{}, errBadIntent
		}
		it.recs = append(it.recs, b[off:off+l])
		off += l
	}
	if it.state != statePrepared && it.state != stateApplied {
		return intent{}, errBadIntent
	}
	return it, nil
}

// ensureStage returns the shard's intent table, creating it on first
// use. Creation is itself crash-atomic (the table's magic word commits
// last), and a root left torn by a crash mid-create is simply recreated.
func (sh *Shard) ensureStage() (*pds.HashTable, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.stage != nil {
		return sh.stage, nil
	}
	th, err := sh.PM.TM().Lease(context.Background())
	if err != nil {
		return nil, err
	}
	defer th.Close()
	var ht *pds.HashTable
	err = th.Atomic(func(tx *mtm.Tx) error {
		t, err := pds.OpenHashTable(tx, sh.stageRoot)
		if err != nil {
			return nil // absent or torn creation: create below
		}
		ht = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	if ht == nil {
		ht, err = pds.CreateHashTable(th, sh.stageRoot, 64)
		if err != nil {
			return nil, err
		}
	}
	sh.stage = ht
	return ht, nil
}

// openStage returns the shard's intent table through a Reader, or nil
// when it was never created (or its creation was torn by a crash).
func (sh *Shard) openStage(r mtm.Reader) *pds.HashTable {
	if pmem.Addr(r.LoadU64(sh.stageRoot)) == pmem.Nil {
		return nil
	}
	ht, err := pds.OpenHashTable(r, sh.stageRoot)
	if err != nil {
		return nil
	}
	return ht
}

// powerGuard runs one participant's step of the intent protocol,
// converting a PowerFailure panic (that shard's power domain died) into
// the cut flag so the coordinator can resolve the survivors before
// re-raising it.
func powerGuard(fn func() error) (err error, cut bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(scm.PowerFailure); ok {
				cut = true
				return
			}
			panic(r)
		}
	}()
	return fn(), false
}

// xscratch is one cross-shard MSET's working memory. The store recycles
// it (getScratch, putScratch), so a warm MSET allocates none of it.
type xscratch struct {
	stages [MaxShards]*pds.HashTable // participants' intent tables, once prepared
	recs   [][]byte                  // one participant's records
	intent []byte                    // the intent record being staged
	hdr    []byte                    // collision checks' header buffer
}

func (st *Store) getScratch() *xscratch {
	st.xmu.Lock()
	defer st.xmu.Unlock()
	n := len(st.xfree)
	if n == 0 {
		return new(xscratch)
	}
	x := st.xfree[n-1]
	st.xfree[n-1] = nil
	st.xfree = st.xfree[:n-1]
	return x
}

func (st *Store) putScratch(x *xscratch) {
	x.stages = [MaxShards]*pds.HashTable{}
	clear(x.recs)
	st.xmu.Lock()
	st.xfree = append(st.xfree, x)
	st.xmu.Unlock()
}

// msetCross runs the cross-shard intent protocol for an MSET touching
// two or more shards: mask is the participant set, and each record
// routes by the key it carries.
func (st *Store) msetCross(mask uint64, recs [][]byte) error {
	telXMSets.Inc()
	xid := st.xid.Add(1)
	x := st.getScratch()
	defer st.putScratch(x)

	// deleteIntent best-effort removes xid's record from live shard j
	// (recovery handles leftovers; a second power cut just re-raises).
	deleteIntent := func(j int) (cut bool) {
		shj, stj := st.shards[j], x.stages[j]
		if stj == nil {
			return false
		}
		_, cut = powerGuard(func() error {
			return shj.PM.Atomic(func(tx *mtm.Tx) error {
				err := stj.Delete(tx, xid)
				if err == pds.ErrNotFound {
					return nil
				}
				return err
			})
		})
		return cut
	}

	// Phase 1: a durable prepare record on every participant. Failure
	// before the last prepare aborts: delete what was staged and report.
	// A power cut here aborts too — the cut shard's record (durable or
	// not) is aborted at its recovery because the survivors' records are
	// gone — and then re-raises the PowerFailure to the caller.
	for m := mask; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		sh := st.shards[k]
		var cut bool
		stage, err := sh.ensureStage()
		if err == nil {
			x.recs = x.recs[:0]
			for _, rec := range recs {
				if keyShard(st, RecordKey(rec)) == k {
					x.recs = append(x.recs, rec)
				}
			}
			x.intent = appendIntent(x.intent[:0], statePrepared, mask, x.recs)
			err, cut = powerGuard(func() error {
				return sh.PM.Atomic(func(tx *mtm.Tx) error {
					// Collisions are detected here, before the commit
					// point, so the whole MSET aborts cleanly instead of
					// clobbering (or skipping) the colliding key later.
					for _, rec := range x.recs {
						var cerr error
						if x.hdr, cerr = st.checkCollision(sh, tx, RecordKey(rec), x.hdr); cerr != nil {
							return cerr
						}
					}
					return stage.Put(tx, xid, x.intent)
				})
			})
		}
		if err != nil || cut {
			telXAbort.Inc()
			for j := 0; j < k; j++ {
				deleteIntent(j)
			}
			if cut {
				panic(scm.PowerFailure{})
			}
			return fmt.Errorf("shard: mset prepare on shard %d: %w", k, err)
		}
		x.stages[k] = stage
	}

	// Phase 2: apply. Every prepare is durable, so the transaction is
	// now committed by rule — an error on one shard no longer aborts it.
	// Keep applying the rest; a shard left prepared is rolled forward by
	// the next recovery. A power cut likewise only stops its own shard:
	// the survivors still get applied here (no live shard may keep an
	// undecided prepared record), cleanup is skipped so the dead shard's
	// recovery sees the applied records and rolls itself forward, and the
	// PowerFailure is re-raised.
	x.intent = appendIntent(x.intent[:0], stateApplied, mask, nil)
	var firstErr error
	anyCut := false
	for m := mask; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		sh, stage := st.shards[k], x.stages[k]
		skipped := 0
		err, cut := powerGuard(func() error {
			return sh.PM.Atomic(func(tx *mtm.Tx) error {
				skipped = 0 // conflict retries rerun the closure
				for _, rec := range recs {
					if keyShard(st, RecordKey(rec)) != k {
						continue
					}
					// Past the commit point a collision (a racing write
					// landed a colliding key after our prepare) cannot
					// abort the MSET anymore; skip the pair rather than
					// destroy the newer record, and count the skip.
					if err := st.checkedPut(sh, tx, rec); errors.Is(err, ErrHashCollision) {
						skipped++
					} else if err != nil {
						return err
					}
				}
				return stage.Put(tx, xid, x.intent)
			})
		})
		if err == nil && !cut && skipped > 0 {
			telXCollisionSkips.Add(uint64(skipped))
		}
		if cut {
			anyCut = true
			continue
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard: mset apply on shard %d: %w", k, err)
		}
	}
	if anyCut {
		panic(scm.PowerFailure{})
	}
	if firstErr != nil {
		return firstErr
	}

	// Phase 3: cleanup, best effort — recovery deletes leftovers. A power
	// cut mid-cleanup is harmless (remaining records are applied, inert)
	// but still re-raised after the surviving shards are swept.
	for m := mask; m != 0; m &= m - 1 {
		if deleteIntent(bits.TrailingZeros64(m)) {
			anyCut = true
		}
	}
	if anyCut {
		panic(scm.PowerFailure{})
	}
	return nil
}

// resolveIntents scans every shard's intent table after recovery and
// decides each surviving cross-shard transaction: roll forward when any
// shard applied or every participant prepared, roll back otherwise.
// Runs sequentially over ascending shards and ascending transaction ids,
// so crash exploration of recovery itself is deterministic.
func (st *Store) resolveIntents() (commits, aborts int, err error) {
	n := len(st.shards)
	per := make([]map[uint64]intent, n)
	var maxXID uint64
	for k := 0; k < n; k++ {
		per[k] = make(map[uint64]intent)
		sh := st.shards[k]
		var scanErr error
		verr := sh.PM.View(func(r *mtm.ReadTx) error {
			stage := sh.openStage(r)
			if stage == nil {
				return nil
			}
			per[k] = make(map[uint64]intent) // retries rerun the closure
			scanErr = nil
			stage.Scan(r, func(key uint64, val []byte) bool {
				it, derr := decodeIntent(val)
				if derr != nil {
					scanErr = fmt.Errorf("shard %d xid %d: %w", k, key, derr)
					return false
				}
				per[k][key] = it
				if key > maxXID {
					maxXID = key
				}
				return true
			})
			return scanErr
		})
		if verr != nil {
			return 0, 0, verr
		}
	}
	// Later transaction ids must not collide with leftovers while we
	// resolve them.
	st.xid.Store(maxXID)

	xidSet := make(map[uint64]bool)
	for k := 0; k < n; k++ {
		for xid := range per[k] {
			xidSet[xid] = true
		}
	}
	xids := make([]uint64, 0, len(xidSet))
	for xid := range xidSet {
		xids = append(xids, xid)
	}
	sort.Slice(xids, func(i, j int) bool { return xids[i] < xids[j] })

	for _, xid := range xids {
		var mask uint64
		anyApplied := false
		for k := 0; k < n; k++ {
			if it, ok := per[k][xid]; ok {
				mask |= it.mask
				if it.state == stateApplied {
					anyApplied = true
				}
			}
		}
		allPrepared := true
		for k := 0; k < n; k++ {
			if mask&(1<<uint(k)) == 0 {
				continue
			}
			if _, ok := per[k][xid]; !ok {
				allPrepared = false
				break
			}
		}
		commit := anyApplied || allPrepared
		if commit {
			commits++
			// Roll forward: apply every still-prepared shard's pairs and
			// mark it applied, before any record is deleted, so a crash
			// mid-resolution re-reaches the same decision.
			for k := 0; k < n; k++ {
				it, ok := per[k][xid]
				if !ok || it.state != statePrepared {
					continue
				}
				sh := st.shards[k]
				skipped := 0
				if err := sh.PM.Atomic(func(tx *mtm.Tx) error {
					skipped = 0 // conflict retries rerun the closure
					stage, serr := pds.OpenHashTable(tx, sh.stageRoot)
					if serr != nil {
						return serr
					}
					for _, rec := range it.recs {
						if _, derr := DecodeHeader(rec); derr != nil {
							return derr
						}
						// Recovery must finish: a pair whose slot a
						// different key took since the prepare is skipped
						// and counted, never clobbered and never fatal.
						if perr := st.checkedPut(sh, tx, rec); errors.Is(perr, ErrHashCollision) {
							skipped++
						} else if perr != nil {
							return perr
						}
					}
					return stage.Put(tx, xid, appendIntent(nil, stateApplied, it.mask, nil))
				}); err != nil {
					return commits, aborts, fmt.Errorf("shard %d: roll-forward xid %d: %w", k, xid, err)
				}
				if skipped > 0 {
					telXCollisionSkips.Add(uint64(skipped))
				}
			}
		} else {
			aborts++
		}
		// Cleanup (both outcomes): delete every record of this xid.
		for k := 0; k < n; k++ {
			if _, ok := per[k][xid]; !ok {
				continue
			}
			sh := st.shards[k]
			if err := sh.PM.Atomic(func(tx *mtm.Tx) error {
				stage, serr := pds.OpenHashTable(tx, sh.stageRoot)
				if serr != nil {
					return serr
				}
				derr := stage.Delete(tx, xid)
				if derr == pds.ErrNotFound {
					return nil
				}
				return derr
			}); err != nil {
				return commits, aborts, fmt.Errorf("shard %d: cleanup xid %d: %w", k, xid, err)
			}
		}
	}
	return commits, aborts, nil
}
