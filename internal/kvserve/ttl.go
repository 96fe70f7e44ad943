package kvserve

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/mtm"
	"repro/internal/pds"
	"repro/internal/pmem"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

var telExpired = telemetry.NewCounter("kvserve_expired_total",
	"Records physically reclaimed after their TTL deadline (sweeps and lazy reaps).")

// Persistent timer wheel. Each node owns one wheel, allocated lazily in
// the first expiry-carrying transaction and rooted at the "kvserve.ttl"
// static, so deadlines survive crashes and recovery resumes sweeping.
//
// Layout, at the wheel's block:
//
//	[0]  magic
//	[8]  reserved
//	[16] 32 slot heads, one per wheelTick ring position
//
// An entry is [next][keyhash][deadline], 24 bytes, prepended to the slot
// chain of its deadline's ring position. Entries are ADVISORY: the
// record's own Expire field is the authoritative deadline (checked on
// every read and before every sweep deletion), so a stale entry — left
// behind by PERSIST, DEL, or an overwriting SET — can never expire a
// record whose own deadline says otherwise; it is simply unlinked when
// the sweeper reaches it. The wheel entry and the record's deadline are
// written in the SAME transaction, which is what makes the crash oracle
// hold: either both exist (key expires, sweeper finds it) or neither
// does (key lives, nothing ever reaps it).
const (
	wheelMagic  = 0x4c454548574c5454 // "TTLWHEEL" little-endian-ish tag
	wheelSlots  = 32
	wheelTick   = int64(time.Second)
	wheelHdr    = 16
	wheelBytes  = wheelHdr + 8*wheelSlots
	entryBytes  = 24
	sweepBudget = 256 // max entries retired per sweep transaction
)

func wheelSlot(deadline int64) int64 {
	return (deadline / wheelTick) % wheelSlots
}

// wheelEnsure returns the node's wheel, allocating it inside tx on first
// use (pmalloc-inside-atomic, Figure 3 of the paper: an abort undoes
// both the allocation and the root-cell write).
func wheelEnsure(n *node, tx *mtm.Tx) (pmem.Addr, error) {
	base := pmem.Addr(tx.LoadU64(n.ttlRoot))
	if base != pmem.Nil {
		return base, nil
	}
	base, err := tx.PMalloc(wheelBytes, n.ttlRoot)
	if err != nil {
		return pmem.Nil, err
	}
	tx.StoreU64(base, wheelMagic)
	tx.StoreU64(base.Add(8), 0)
	for i := int64(0); i < wheelSlots; i++ {
		tx.StoreU64(base.Add(wheelHdr+8*i), 0)
	}
	return base, nil
}

// wheelAdd records keyhash's deadline in the wheel, inside the same
// transaction that writes the record's Expire field. An existing entry
// for the key in the target slot is updated in place; otherwise a new
// entry is prepended.
func (s *Server) wheelAdd(n *node, tx *mtm.Tx, keyhash uint64, deadline int64) error {
	base, err := wheelEnsure(n, tx)
	if err != nil {
		return err
	}
	slotAddr := base.Add(wheelHdr + 8*wheelSlot(deadline))
	for e := pmem.Addr(tx.LoadU64(slotAddr)); e != pmem.Nil; e = pmem.Addr(tx.LoadU64(e)) {
		if tx.LoadU64(e.Add(8)) == keyhash {
			tx.StoreU64(e.Add(16), uint64(deadline))
			n.ttlLive.Store(true)
			return nil
		}
	}
	e, err := tx.Alloc(entryBytes)
	if err != nil {
		return err
	}
	tx.StoreU64(e, tx.LoadU64(slotAddr)) // next = old head
	tx.StoreU64(e.Add(8), keyhash)
	tx.StoreU64(e.Add(16), uint64(deadline))
	tx.StoreU64(slotAddr, uint64(e))
	n.ttlLive.Store(true)
	return nil
}

// wheelHasDue reports whether any wheel entry's deadline has passed —
// the sweeper's snapshot pre-check, so an idle server (or one with only
// future deadlines) never starts a write transaction just to discover
// there is nothing to do.
func wheelHasDue(n *node, r mtm.Reader, now int64) bool {
	base := pmem.Addr(r.LoadU64(n.ttlRoot))
	if base == pmem.Nil {
		return false
	}
	for slot := int64(0); slot < wheelSlots; slot++ {
		for e := pmem.Addr(r.LoadU64(base.Add(wheelHdr + 8*slot))); e != pmem.Nil; e = pmem.Addr(r.LoadU64(e)) {
			if int64(r.LoadU64(e.Add(16))) <= now {
				return true
			}
		}
	}
	return false
}

// sweepShard retires due wheel entries on shard k: each due entry is
// unlinked and freed, and its record is deleted ONLY if the record's own
// deadline has also passed — a stale entry for a key whose TTL was since
// removed or pushed out just vanishes. Returns how many records were
// reclaimed. The whole sweep is one durable transaction (bounded by
// sweepBudget), so a crash mid-sweep either keeps or retires each entry
// atomically with its record.
func (s *Server) sweepShard(k int, now int64) (int, error) {
	st := s.store
	n := st.Node(k)
	if !n.ttlLive.Load() {
		return 0, nil
	}
	due := false
	if err := st.View(0, k, func(n *node, r mtm.Reader) error {
		due = wheelHasDue(n, r, now)
		return nil
	}); err != nil {
		return 0, err
	}
	if !due {
		return 0, nil
	}
	reaped := 0
	err := st.Update(0, k, func(n *node, tx *mtm.Tx) error {
		reaped = 0 // conflict retries rerun the closure
		base := pmem.Addr(tx.LoadU64(n.ttlRoot))
		if base == pmem.Nil {
			return nil
		}
		budget := sweepBudget
		for slot := int64(0); slot < wheelSlots && budget > 0; slot++ {
			prev := base.Add(wheelHdr + 8*slot)
			e := pmem.Addr(tx.LoadU64(prev))
			for e != pmem.Nil && budget > 0 {
				next := pmem.Addr(tx.LoadU64(e))
				if int64(tx.LoadU64(e.Add(16))) > now {
					prev = e
					e = next
					continue
				}
				keyhash := tx.LoadU64(e.Add(8))
				tx.StoreU64(prev, uint64(next))
				if err := tx.FreeBlock(e); err != nil {
					return err
				}
				budget--
				if dead, err := expiredAt(n, tx, keyhash, now); err != nil {
					return err
				} else if dead {
					if err := n.tree.Delete(tx, keyhash); err != nil {
						return err
					}
					reaped++
				}
				e = next
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if reaped > 0 {
		telExpired.Add(uint64(reaped))
	}
	return reaped, nil
}

// sweepAll sweeps every shard at the given instant, returning the total
// records reclaimed. Tests drive it synchronously with a fake clock; the
// background sweeper calls it on a ticker.
func (s *Server) sweepAll(now int64) (int, error) {
	total := 0
	for k := 0; k < s.store.NShards(); k++ {
		n, err := s.sweepShard(k, now)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// reapItem queues a lazily-discovered expired record (a read saw a
// deadline in the past) for physical deletion off the read path.
type reapItem struct {
	k int
	h uint64
}

// reapLater enqueues without blocking; a full queue just drops the hint
// — the record stays masked on every read and the next sweep retires it.
func (s *Server) reapLater(k int, h uint64) {
	select {
	case s.reapCh <- reapItem{k: k, h: h}:
	default:
	}
}

// expiredAt reports whether the record at slot h has outlived its own
// deadline, from its header alone; an empty slot has not.
func expiredAt(n *node, r mtm.Reader, h uint64, now int64) (bool, error) {
	v, err := n.tree.Find(r, h)
	if err == pds.ErrNotFound {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	hdr, _, err := shard.LoadHeader(v, nil)
	return err == nil && hdr.Expired(now), err
}

// reapOne deletes the record at h on shard k if — and only if — its own
// deadline has passed; the record may have been overwritten with a fresh
// value since the hint was queued.
func (s *Server) reapOne(it reapItem) {
	reaped := false
	err := s.store.Update(0, it.k, func(n *node, tx *mtm.Tx) error {
		var err error
		if reaped, err = expiredAt(n, tx, it.h, s.now()); err != nil || !reaped {
			return err
		}
		return n.tree.Delete(tx, it.h)
	})
	if err == nil && reaped {
		telExpired.Inc()
	}
}

// sweeper is the background expiry goroutine: it drains lazy-reap hints
// and ticks the wheel sweep. Started on the first Serve/ServeRESP, it
// exits with the server's lifecycle context.
func (s *Server) sweeper() {
	defer s.wg.Done()
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case it := <-s.reapCh:
			s.reapOne(it)
		case <-t.C:
			// Sweep errors are transient (crash harness detached the
			// device, every slot busy past the lease timeout); the next
			// tick retries.
			s.sweepAll(s.now())
		}
	}
}

// --- TTL command handlers ---

// ttlUnit is the time unit of the running command's argument or reply:
// milliseconds for the P-prefixed verbs (PEXPIRE, PTTL), seconds otherwise.
func (c *call) ttlUnit() int64 {
	if c.args[0][0]|0x20 == 'p' {
		return int64(time.Millisecond)
	}
	return int64(time.Second)
}

// cmdExpire serves EXPIRE and PEXPIRE: stamp an absolute deadline into
// the record and register it on the wheel, both in one durable
// transaction. A non-positive ttl deletes the key immediately (redis
// semantics). Answers 1 when a deadline was set (or the key deleted),
// 0 when the key does not exist.
func cmdExpire(c *call) {
	d, err := strconv.ParseInt(string(c.args[2]), 10, 64)
	if err != nil {
		c.fail(fmt.Sprintf("invalid expire time %q", c.args[2]))
		return
	}
	err = c.update(func(n *node, tx *mtm.Tx) error {
		c.n = 0
		hdr, v, ok, err := c.record(n, tx)
		if err != nil || !ok {
			return err
		}
		c.n = 1
		if d <= 0 {
			return n.tree.Delete(tx, c.h)
		}
		hdr.Expire = c.s.now() + d*c.ttlUnit()
		if err := c.restamp(n, tx, hdr, v); err != nil {
			return err
		}
		return c.s.wheelAdd(n, tx, c.h, hdr.Expire)
	})
	if err != nil {
		c.fail(err.Error())
		return
	}
	c.w.WriteInt(c.n)
}

// restamp rewrites the command's key's record with hdr's deadline: a new
// header in front of the payload, which is read into c.rec.
func (c *call) restamp(n *node, tx *mtm.Tx, hdr shard.Header, v pds.Stored) error {
	payload := c.payload(hdr, v)
	head, err := shard.AppendHeader(nil, c.args[1], hdr.Type, hdr.Expire)
	if err != nil {
		return err
	}
	return putRecord(n, tx, c.h, head, payload)
}

// cmdTTL serves TTL and PTTL: -2 for a missing (or expired) key, -1 for
// a key with no deadline, else the remaining time rounded up.
func cmdTTL(c *call) {
	err := c.view(func(n *node, r mtm.Reader) error {
		c.n = -2
		hdr, _, ok, err := c.record(n, r)
		if err != nil || !ok {
			return err
		}
		if c.n = -1; hdr.Expire != 0 {
			unit := c.ttlUnit()
			// Not yet expired: round the sliver up.
			c.n = max(1, (hdr.Expire-c.s.now()+unit-1)/unit)
		}
		return nil
	})
	if err != nil {
		c.fail(err.Error())
		return
	}
	c.w.WriteInt(c.n)
}

// cmdPersist clears a key's deadline: 1 when a deadline was removed,
// 0 when the key is missing or had none. The wheel entry is left behind
// as a stale advisory — the sweeper unlinks it without touching the
// record, whose own Expire field now says "never".
func cmdPersist(c *call) {
	err := c.update(func(n *node, tx *mtm.Tx) error {
		c.n = 0
		hdr, v, ok, err := c.record(n, tx)
		if err != nil || !ok || hdr.Expire == 0 {
			return err
		}
		c.n = 1
		hdr.Expire = 0
		return c.restamp(n, tx, hdr, v)
	})
	if err != nil {
		c.fail(err.Error())
		return
	}
	c.w.WriteInt(c.n)
}
