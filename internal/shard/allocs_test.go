//go:build !race

package shard

import (
	"fmt"
	"testing"
)

// TestMPutAllocs pins what a warm cross-shard MPut costs the Go heap:
// nothing. Routing reads each record's own key, participants are a shard
// mask, and the intents, the participant's record list and the collision
// checks' header buffer live in scratch the store recycles.
func TestMPutAllocs(t *testing.T) {
	st := openStore(t, 2)
	defer st.Close()
	var recs [][]byte
	var onShard [2]int
	for i := 0; onShard[0] < 2 || onShard[1] < 2; i++ {
		key := fmt.Sprintf("mput-%d", i)
		if k := st.ShardOf(key); onShard[k] < 2 {
			onShard[k]++
			rec, err := EncodeKV(key, "value")
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
		}
	}
	crossed, calls := telXMSets.Value(), uint64(0)
	mput := func() {
		calls++
		if err := st.MPut(recs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		mput()
	}
	if allocs := testing.AllocsPerRun(100, mput); allocs != 0 {
		t.Errorf("cross-shard MPut of %d records allocates %v times, want 0", len(recs), allocs)
	}
	if got := telXMSets.Value() - crossed; got != calls {
		t.Fatalf("%d of %d MPuts ran the cross-shard protocol, want all", got, calls)
	}
}

// TestHashCodecAllocs pins the hash codec's scratch reuse: encoding into
// a buffer and decoding into a field slice that are already large enough
// allocate nothing, sorting included.
func TestHashCodecAllocs(t *testing.T) {
	fields := []HashField{
		{Name: []byte("zeta"), Value: []byte("1")},
		{Name: []byte("alpha"), Value: []byte("22")},
		{Name: []byte("mid"), Value: []byte("333")},
	}
	buf := AppendHashFields(nil, fields)
	decoded, err := DecodeHashFields(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		fields[0], fields[2] = fields[2], fields[0] // unsorted again
		buf = AppendHashFields(buf[:0], fields)
		decoded, err = DecodeHashFields(decoded[:0], buf)
	}); allocs != 0 || err != nil {
		t.Errorf("hash encode+decode into scratch: %v allocs (err %v), want 0", allocs, err)
	}
}
