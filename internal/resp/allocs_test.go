//go:build !race

package resp

import (
	"bytes"
	"testing"
)

// loopReader serves the same bytes over and over: an endless pipelined
// stream with nothing allocated per read.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

// TestReadWriteAllocs pins the codec's share of the serving shell at zero:
// parsing a command out of the input buffer and rendering its reply into
// the output buffer allocate nothing once the buffers exist.
func TestReadWriteAllocs(t *testing.T) {
	var in bytes.Buffer
	cw := NewWriter(&in)
	cw.WriteCommand([]byte("SET"), []byte("0123456789abcdef"), bytes.Repeat([]byte("v"), 2048))
	cw.WriteCommandStrings("get", "0123456789abcdef")
	cw.Flush()
	r := NewReader(&loopReader{data: in.Bytes()})
	var w Writer
	value := make([]byte, 2048)
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 2; i++ {
			args, err := r.ReadCommand()
			if err != nil || len(args) < 2 {
				t.Fatalf("ReadCommand: %q, %v", args, err)
			}
		}
		w.Truncate(0)
		w.WriteSimple("OK")
		copy(w.Bulk(len(value)), value)
		w.WriteInt(123456)
		w.WriteNull()
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per SET+GET round through the codec, want 0", allocs)
	}
}
