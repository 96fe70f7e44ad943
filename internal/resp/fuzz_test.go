package resp

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strconv"
	"testing"
)

// errRefProto is the reference parser's "framing violation" verdict.
var errRefProto = errors.New("reference: protocol error")

// refCommands is the copying reference the view-returning Reader is checked
// against: a plain left-to-right parse of the whole input into freshly
// allocated arguments. It returns the commands the stream holds and how the
// stream ends: io.EOF between frames, io.ErrUnexpectedEOF inside one, or
// errRefProto at a framing violation.
func refCommands(data []byte) (cmds [][][]byte, end error) {
	// intLine parses "<int>\r\n" at data[pos:].
	intLine := func(pos int) (v int64, next int, err error) {
		i := pos
		if i < len(data) && data[i] == '-' {
			i++
		}
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
		digits := i - pos
		if digits > 0 && data[pos] == '-' {
			digits--
		}
		switch {
		case digits > 18:
			return 0, 0, errRefProto
		case i == len(data):
			return 0, 0, io.ErrUnexpectedEOF
		case data[i] != '\r' || digits == 0:
			return 0, 0, errRefProto
		case i+1 == len(data):
			return 0, 0, io.ErrUnexpectedEOF
		case data[i+1] != '\n':
			return 0, 0, errRefProto
		}
		v, _ = strconv.ParseInt(string(data[pos:i]), 10, 64)
		return v, i + 2, nil
	}
	for pos := 0; pos < len(data); {
		if data[pos] != '*' {
			nl := bytes.IndexByte(data[pos:], '\n')
			switch {
			case nl < 0 && len(data)-pos > MaxInlineLen, nl > MaxInlineLen:
				return cmds, errRefProto
			case nl < 0:
				return cmds, io.ErrUnexpectedEOF
			}
			var args [][]byte
			for _, f := range bytes.FieldsFunc(data[pos:pos+nl], func(r rune) bool {
				return r == ' ' || (r >= '\t' && r <= '\r')
			}) {
				args = append(args, append([]byte{}, f...))
			}
			if len(args) > 0 {
				cmds = append(cmds, args)
			}
			pos += nl + 1
			continue
		}
		n, next, err := intLine(pos + 1)
		if err != nil {
			return cmds, err
		}
		pos = next
		if n > MaxArrayLen {
			return cmds, errRefProto
		}
		var args [][]byte
		for ; n > 0; n-- {
			if pos == len(data) {
				return cmds, io.ErrUnexpectedEOF
			}
			if data[pos] != '$' {
				return cmds, errRefProto
			}
			l, next, err := intLine(pos + 1)
			if err != nil {
				return cmds, err
			}
			if l < 0 || l > MaxBulkLen {
				return cmds, errRefProto
			}
			end := next + int(l)
			if end+2 > len(data) {
				return cmds, io.ErrUnexpectedEOF
			}
			if data[end] != '\r' || data[end+1] != '\n' {
				return cmds, errRefProto
			}
			args = append(args, append([]byte{}, data[next:end]...))
			pos = end + 2
		}
		if len(args) > 0 {
			cmds = append(cmds, args)
		}
	}
	return cmds, io.EOF
}

// chunkReader delivers its data at most chunk bytes per Read, so frames
// arrive torn across fills.
type chunkReader struct {
	data  []byte
	chunk int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.chunk)], c.data)
	c.data = c.data[n:]
	return n, nil
}

// FuzzRESPParse throws arbitrary byte streams at the command reader, each
// delivered whole and in small chunks into a 16-byte input buffer that must
// compact and grow to hold them. Invariants, for any input:
//
//   - the reader never panics and stays within the declared limits
//     (argument counts and sizes within MaxArrayLen and MaxBulkLen);
//   - it agrees with the copying reference parser on every command and on
//     how the stream ends, however the bytes arrive;
//   - views live as long as promised: every command read while
//     CommandAvailable held — a pipelined batch — still equals the
//     reference's copy when the batch ends;
//   - when CommandAvailable holds, the read returns a command or a
//     ProtoError — never a blocked/torn-frame I/O error;
//   - every parsed command survives a write/reparse round trip bit for
//     bit, so the client and server sides of the codec agree.
//
// The checked-in corpus (testdata/fuzz/FuzzRESPParse) pins torn frames,
// oversized bulk lengths, and nested arrays.
func FuzzRESPParse(f *testing.F) {
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"))
	f.Add([]byte("PING\r\nGET key\r\n"))
	f.Add([]byte("*1\r\n$3\r\nAB"))              // torn bulk body
	f.Add([]byte("*2\r\n$3\r\nGET\r\n"))         // torn array
	f.Add([]byte("*1\r\n$99999999999\r\nx"))     // oversized bulk length
	f.Add([]byte("*1\r\n*1\r\n$1\r\na\r\n"))     // nested array
	f.Add([]byte("*-1\r\n*0\r\n$4\r\nPING\r\n")) // null/empty arrays then junk
	f.Add([]byte("$5\r\nhello\r\n"))             // reply-typed frame as a command
	f.Add([]byte("*1\r\n$-7\r\n"))               // negative bulk length
	f.Add([]byte("\r\n\r\n\r\n"))
	f.Add([]byte{0x00, 0xff, '*', '1'})
	f.Add([]byte("*1\r\n$4\r\nPING\r\n*0\r\n\r\n*2\r\n$3\r\nGET\r\n$40\r\n0123456789012345678901234567890123456789\r\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantEnd := refCommands(data)
		for _, chunk := range []int{len(data) + 1, 1, 1 + len(data)%7} {
			r := &Reader{rd: &chunkReader{data: data, chunk: chunk}, buf: make([]byte, 16)}
			var batch [][][]byte // views still promised valid
			got := 0
			checkBatch := func() {
				for i, args := range batch {
					if ref := want[got-len(batch)+i]; !reflect.DeepEqual(args, ref) {
						t.Fatalf("chunk %d: command %d = %q, reference %q, on %q", chunk, got-len(batch)+i, args, ref, data)
					}
				}
				batch = batch[:0]
			}
			for {
				avail := r.CommandAvailable()
				if !avail {
					checkBatch() // the next read may wait for the stream: these views die
				}
				args, err := r.ReadCommand()
				if err != nil {
					checkBatch()
					if avail && !IsProtocol(err) {
						t.Fatalf("chunk %d: CommandAvailable, then %v, on %q", chunk, err, data)
					}
					if IsProtocol(err) != (wantEnd == errRefProto) || (!IsProtocol(err) && err != wantEnd) {
						t.Fatalf("chunk %d: stream ends with %v, reference %v, on %q", chunk, err, wantEnd, data)
					}
					if got != len(want) {
						t.Fatalf("chunk %d: %d commands, reference %d, on %q", chunk, got, len(want), data)
					}
					break
				}
				if got == len(want) {
					t.Fatalf("chunk %d: extra command %q on %q", chunk, args, data)
				}
				if len(args) == 0 || len(args) > MaxArrayLen {
					t.Fatalf("argument count %d out of range on %q", len(args), data)
				}
				for _, a := range args {
					if len(a) > MaxBulkLen {
						t.Fatalf("argument of %d bytes exceeds MaxBulkLen on %q", len(a), data)
					}
				}
				batch = append(batch, args)
				got++
			}
		}
		// Round trip: re-encode each command as a canonical array and
		// reparse; the result must be identical.
		for _, args := range want {
			var buf bytes.Buffer
			w := NewWriter(&buf)
			w.WriteCommand(args...)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			again, err := NewReader(&buf).ReadCommand()
			if err != nil {
				t.Fatalf("reparse of %q: %v", args, err)
			}
			if !reflect.DeepEqual(args, again) {
				t.Fatalf("round trip changed %q into %q", args, again)
			}
		}
	})
}
