package kvserve

import (
	"bytes"

	"repro/internal/mtm"
	"repro/internal/shard"
)

// Hash commands (HSET/HGET/HDEL/HLEN/HGETALL) store a field→value map
// in a single RecHash tree record: small hashes in one slot, updated by
// read-modify-write inside the key's durable transaction. An expired
// hash behaves exactly like an absent key — writes start a fresh hash
// with no TTL, reads answer empty — and a live hash keeps its expiry
// deadline across field updates (redis semantics: only SET clears a
// TTL, other write commands preserve it).

// loadHash reads the command's key's hash fields inside a transaction or
// view. ok=false means logically absent (missing, collision, or expired);
// a live record of the wrong type fails with ErrWrongType. The fields,
// decoded into c.fields, are views into c.rec.
func (c *call) loadHash(n *node, r mtm.Reader) (hdr shard.Header, fields []shard.HashField, ok bool, err error) {
	hdr, v, ok, err := c.record(n, r)
	if err != nil || !ok {
		return hdr, nil, false, err
	}
	if hdr.Type != shard.RecHash {
		return hdr, nil, false, shard.ErrWrongType
	}
	c.fields, err = shard.DecodeHashFields(c.fields[:0], c.payload(hdr, v))
	return hdr, c.fields, err == nil, err
}

// storeHash writes the command's key's hash back with fields as its new
// field set, keeping the deadline hdr carries. The fields may still alias
// c.rec: they are encoded into c.hash before c.rec takes the new header.
// fields, grown or cut from c.fields, becomes c.fields.
func (c *call) storeHash(n *node, tx *mtm.Tx, hdr shard.Header, fields []shard.HashField) error {
	c.fields = fields
	c.hash = shard.AppendHashFields(c.hash[:0], fields)
	err := checkValueSize(len(c.hash))
	if err == nil {
		c.rec, err = shard.AppendHeader(c.rec[:0], c.args[1], shard.RecHash, hdr.Expire)
	}
	if err != nil {
		return err
	}
	return putRecord(n, tx, c.h, c.rec, c.hash)
}

func cmdHSet(c *call) {
	if (len(c.args)-2)%2 != 0 {
		c.fail("usage: " + registry["HSET"].usage)
		return
	}
	err := checkKeySize(c.args[1])
	if err == nil {
		err = c.update(func(n *node, tx *mtm.Tx) error {
			c.n = 0
			hdr, fields, ok, err := c.loadHash(n, tx)
			if err != nil {
				return err
			}
			if !ok {
				hdr = shard.Header{} // a fresh hash carries no deadline
			}
			for i := 2; i < len(c.args); i += 2 {
				name, value := c.args[i], c.args[i+1]
				found := false
				for j := range fields {
					if bytes.Equal(fields[j].Name, name) {
						fields[j].Value = value
						found = true
						break
					}
				}
				if !found {
					fields = append(fields, shard.HashField{Name: name, Value: value})
					c.n++
				}
			}
			return c.storeHash(n, tx, hdr, fields)
		})
	}
	if err != nil {
		c.fail(err.Error())
		return
	}
	c.w.WriteInt(c.n)
}

func cmdHGet(c *call) {
	mark := c.w.Len()
	err := c.view(func(n *node, r mtm.Reader) error {
		c.w.Truncate(mark)
		_, fields, _, err := c.loadHash(n, r)
		if err != nil {
			return err
		}
		for _, f := range fields {
			if bytes.Equal(f.Name, c.args[2]) {
				c.w.WriteBulk(f.Value)
				return nil
			}
		}
		c.w.WriteNull()
		return nil
	})
	if err != nil {
		c.w.Truncate(mark)
		c.fail(err.Error())
	}
}

// cmdHDel removes named fields, deleting the record outright when the
// last field goes — an empty hash does not exist, so HLEN after a full
// HDEL answers 0 and the tree slot is reclaimed.
func cmdHDel(c *call) {
	err := c.update(func(n *node, tx *mtm.Tx) error {
		c.n = 0
		hdr, fields, ok, err := c.loadHash(n, tx)
		if err != nil || !ok {
			return err
		}
		kept := fields[:0]
		for _, f := range fields {
			del := false
			for _, name := range c.args[2:] {
				if bytes.Equal(f.Name, name) {
					del = true
					break
				}
			}
			if del {
				c.n++
			} else {
				kept = append(kept, f)
			}
		}
		switch {
		case c.n == 0:
			return nil
		case len(kept) == 0:
			return n.tree.Delete(tx, c.h)
		}
		return c.storeHash(n, tx, hdr, kept)
	})
	if err != nil {
		c.fail(err.Error())
		return
	}
	c.w.WriteInt(c.n)
}

func cmdHLen(c *call) {
	err := c.view(func(n *node, r mtm.Reader) error {
		_, fields, _, err := c.loadHash(n, r)
		c.n = int64(len(fields))
		return err
	})
	if err != nil {
		c.fail(err.Error())
		return
	}
	c.w.WriteInt(c.n)
}

func cmdHGetAll(c *call) {
	mark := c.w.Len()
	err := c.view(func(n *node, r mtm.Reader) error {
		c.w.Truncate(mark)
		_, fields, _, err := c.loadHash(n, r)
		if err != nil {
			return err
		}
		c.w.WriteArrayHeader(2 * len(fields))
		for _, f := range fields {
			c.w.WriteBulk(f.Name)
			c.w.WriteBulk(f.Value)
		}
		return nil
	})
	if err != nil {
		c.w.Truncate(mark)
		c.fail(err.Error())
	}
}
