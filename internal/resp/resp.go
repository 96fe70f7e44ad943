// Package resp implements the RESP2 wire protocol (the Redis
// serialization protocol): commands arrive as arrays of bulk strings or
// as whitespace-separated inline lines, replies leave as simple strings,
// errors, integers, bulk strings, or arrays.
//
// The package is transport-only: it frames commands and replies over a
// byte stream and knows nothing about what the commands mean. kvserve
// mounts a Reader/Writer pair per connection on its RESP listener; the
// same pair drives the in-repo client (cmd/respsmoke) and the mnbench
// resp kernel, so CI needs no external redis-cli.
//
// Bulk strings carry arbitrary bytes — including spaces, newlines, and
// NULs — so keys and values are binary-safe end to end.
//
// Neither side of the pair allocates per frame. A Reader owns one input
// buffer and hands commands out as views into it; a Writer owns one output
// buffer that replies are appended to, or built in place in (Bulk). The
// price is a lifetime rule on the reading side: a command's arguments are
// valid until the Reader next has to wait for the stream — until the
// batch of commands that were already buffered has been answered — and
// must be copied to be kept longer. See ReadCommand. Replies parsed on the
// client side (ReadValue, ParseValue) own their bytes.
package resp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Protocol limits. A frame that declares more is a protocol error, not
// an allocation: the reader validates declared sizes before making room
// for them, so a hostile "$9999999999" costs nothing.
const (
	// MaxBulkLen bounds one bulk string (a key, a value, one argument).
	// It leaves headroom over kvserve's 56 KiB value cap so an oversized
	// value reaches the command layer and earns a clean command error
	// rather than a connection-killing protocol error.
	MaxBulkLen = 64 << 10
	// MaxArrayLen bounds the elements of one command array (and of one
	// reply array when parsing replies).
	MaxArrayLen = 1 << 16
	// MaxInlineLen bounds one inline command line.
	MaxInlineLen = 64 << 10
)

// maxValueDepth bounds reply nesting when parsing replies client-side.
const maxValueDepth = 32

// ProtoError is a RESP framing violation: bad type byte, malformed
// length, missing CRLF, or a declared size beyond the limits. After a
// ProtoError the stream cannot be resynchronized; the server answers a
// final error and closes the connection, like Redis does.
type ProtoError struct{ msg string }

func (e *ProtoError) Error() string { return "resp: " + e.msg }

func protoErrf(format string, args ...any) error {
	return &ProtoError{msg: fmt.Sprintf(format, args...)}
}

// IsProtocol reports whether err is a framing violation (as opposed to
// an I/O error such as a closed connection).
func IsProtocol(err error) bool {
	var pe *ProtoError
	return errors.As(err, &pe)
}

// Reader decodes RESP frames from a stream through one input buffer it
// owns. Commands are handed out as views into that buffer, so a served
// command's key and value are never copied on the way in.
type Reader struct {
	rd   io.Reader
	buf  []byte // unread bytes are buf[r:w]
	r, w int
	argv [][]byte // argument views handed out since the last fill
}

// Buffer sizing: a Reader starts with readBufSize, doubles for a frame
// that does not fit, and gives the space back once a buffer larger than
// maxRetained has drained (a Writer drops its buffer the same way), so one
// oversized frame does not pin its size to the connection for good.
const (
	readBufSize = 64 << 10
	maxRetained = 256 << 10
)

// NewReader wraps r with a buffered RESP decoder.
func NewReader(r io.Reader) *Reader {
	return &Reader{rd: r, buf: make([]byte, readBufSize)}
}

// fill reads more of the stream in behind the unread bytes, first moving
// them to the front of the buffer and doubling a buffer they fill. This is
// the one place buffered bytes move or are overwritten: every view handed
// out before it is dead.
func (r *Reader) fill() error {
	r.argv = r.argv[:0]
	r.w = copy(r.buf, r.buf[r.r:r.w])
	r.r = 0
	switch {
	case r.w == len(r.buf):
		r.buf = append(r.buf, make([]byte, len(r.buf))...)
	case r.w == 0 && len(r.buf) > maxRetained:
		r.buf = make([]byte, readBufSize)
	}
	for tries := 0; tries < 100; tries++ {
		n, err := r.rd.Read(r.buf[r.w:])
		r.w += n
		if n > 0 {
			return nil
		}
		if err == io.EOF && r.w > 0 {
			return io.ErrUnexpectedEOF // the stream ended inside a frame
		}
		if err != nil {
			return err
		}
	}
	return io.ErrNoProgress
}

// ReadCommand reads one client command: either a RESP array of bulk
// strings ("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n") or an inline command
// ("GET k\r\n"). Empty inline lines and empty arrays are skipped, as in
// Redis. I/O errors (including a torn frame at EOF) come back as-is;
// framing violations come back as ProtoError.
//
// The returned slice and the arguments in it are views into the Reader's
// buffers, not copies. They stay valid across further ReadCommand calls
// that CommandAvailable announced — such a call only slices what is
// already buffered — and die at the next ReadCommand that has to wait for
// the stream: a server reads a batch, answers it, and only then reads on.
// Retain an argument beyond that by copying it.
func (r *Reader) ReadCommand() ([][]byte, error) {
	for {
		start := len(r.argv)
		n, argc, err := frame(r.buf[r.r:r.w], &r.argv)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			if err := r.fill(); err != nil {
				return nil, err
			}
			continue
		}
		r.r += n
		if argc > 0 {
			return r.argv[start:len(r.argv):len(r.argv)], nil
		}
	}
}

// CommandAvailable reports whether a complete command is already
// buffered, so the next ReadCommand neither blocks nor disturbs earlier
// views. A malformed prefix counts as available: reading it fails fast
// with a ProtoError instead of blocking. Skippable units in front of the
// command are consumed here, so they cannot send that ReadCommand back to
// the stream either. This is how the server drains a pipelined burst —
// keep reading while complete commands are provably present, then execute
// the batch.
func (r *Reader) CommandAvailable() bool {
	for {
		n, argc, err := frame(r.buf[r.r:r.w], nil)
		if err != nil || argc > 0 {
			return true
		}
		if n == 0 {
			return false
		}
		r.r += n
	}
}

// frame walks the command frame at the start of b: n > 0 is its length in
// bytes and argc its argument count, n == 0 means b ends inside it. With
// argv set, the arguments are appended to it as views into b. A skippable
// unit ("*0", "*-1", a blank inline line) has a length and no arguments.
// Declared sizes are validated before anything waits for the bytes they
// announce.
func frame(b []byte, argv *[][]byte) (n, argc int, err error) {
	if len(b) == 0 {
		return 0, 0, nil
	}
	if b[0] != '*' {
		return inlineFrame(b, argv)
	}
	cnt, pos, err := intLine(b, 1)
	if err != nil || pos == 0 {
		return 0, 0, err
	}
	if cnt <= 0 {
		return pos, 0, nil // *0 or *-1: no command here
	}
	if cnt > MaxArrayLen {
		return 0, 0, protoErrf("multibulk length %d exceeds %d", cnt, MaxArrayLen)
	}
	for e := int64(0); e < cnt; e++ {
		if pos == len(b) {
			return 0, 0, nil
		}
		if b[pos] != '$' {
			return 0, 0, protoErrf("expected bulk string ('$'), got %q", b[pos])
		}
		l, next, err := intLine(b, pos+1)
		if err != nil || next == 0 {
			return 0, 0, err
		}
		if l < 0 {
			return 0, 0, protoErrf("negative bulk length in command")
		}
		if l > MaxBulkLen {
			return 0, 0, protoErrf("bulk length %d exceeds %d", l, MaxBulkLen)
		}
		end := next + int(l)
		if end+2 > len(b) {
			return 0, 0, nil
		}
		if b[end] != '\r' || b[end+1] != '\n' {
			return 0, 0, protoErrf("bulk string not CRLF-terminated")
		}
		if argv != nil {
			*argv = append(*argv, b[next:end:end])
		}
		pos = end + 2
	}
	return pos, int(cnt), nil
}

// inlineFrame is frame for an inline command: one line, split on ASCII
// whitespace.
func inlineFrame(b []byte, argv *[][]byte) (n, argc int, err error) {
	n = bytes.IndexByte(b, '\n') + 1
	if n == 0 && len(b) <= MaxInlineLen {
		return 0, 0, nil
	}
	if n == 0 || n > MaxInlineLen+1 {
		return 0, 0, protoErrf("line exceeds %d bytes", MaxInlineLen)
	}
	for i := 0; i < n; {
		if isSpace(b[i]) {
			i++
			continue
		}
		j := i
		for !isSpace(b[j]) {
			j++ // stops at the line's '\n' at the latest
		}
		if argv != nil {
			*argv = append(*argv, b[i:j:j])
		}
		argc++
		i = j
	}
	return n, argc, nil
}

func isSpace(c byte) bool {
	return c == ' ' || (c >= '\t' && c <= '\r')
}

// intLine parses "<int>\r\n" at b[from:], returning the value and the
// offset just past the terminator; next == 0 means b ends inside it.
func intLine(b []byte, from int) (v int64, next int, err error) {
	i := from
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	digits := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if digits++; digits > 18 {
			return 0, 0, protoErrf("length header overflows")
		}
		v = v*10 + int64(b[i]-'0')
	}
	switch {
	case i == len(b):
		return 0, 0, nil
	case b[i] != '\r':
		return 0, 0, protoErrf("bad byte %q in length header", b[i])
	case digits == 0:
		return 0, 0, protoErrf("empty length header")
	case i+1 == len(b):
		return 0, 0, nil
	case b[i+1] != '\n':
		return 0, 0, protoErrf("length header not CRLF-terminated")
	}
	if neg {
		v = -v
	}
	return v, i + 2, nil
}

// Value is one parsed RESP reply, for the client side of the protocol
// (tests, cmd/respsmoke, the bench kernel).
type Value struct {
	Type  byte // '+', '-', ':', '$', '*'
	Str   string
	Int   int64
	Bulk  []byte
	Null  bool
	Array []Value
}

// ReadValue parses one reply of any RESP2 type, recursively for arrays.
// Unlike a command's arguments, the Value owns its bytes.
func (r *Reader) ReadValue() (Value, error) {
	for {
		v, n, err := parseValue(r.buf[r.r:r.w], 0)
		if err != nil || n > 0 {
			r.r += n
			return v, err
		}
		if err := r.fill(); err != nil {
			return Value{}, err
		}
	}
}

// ParseValue parses the reply at the start of b, returning it and its
// length in bytes; a length of 0 means b ends inside the reply.
func ParseValue(b []byte) (Value, int, error) { return parseValue(b, 0) }

func parseValue(b []byte, depth int) (Value, int, error) {
	if depth > maxValueDepth {
		return Value{}, 0, protoErrf("reply nesting exceeds %d", maxValueDepth)
	}
	if len(b) == 0 {
		return Value{}, 0, nil
	}
	t := b[0]
	if t == '+' || t == '-' {
		n := bytes.IndexByte(b, '\n') + 1
		if n == 0 && len(b) <= MaxInlineLen {
			return Value{}, 0, nil
		}
		if n == 0 || n > MaxInlineLen+2 {
			return Value{}, 0, protoErrf("line exceeds %d bytes", MaxInlineLen)
		}
		return Value{Type: t, Str: string(bytes.TrimSuffix(b[1:n-1], []byte("\r")))}, n, nil
	}
	if t != ':' && t != '$' && t != '*' {
		return Value{}, 0, protoErrf("bad reply type byte %q", t)
	}
	l, pos, err := intLine(b, 1)
	if err != nil || pos == 0 {
		return Value{}, 0, err
	}
	switch {
	case t == ':':
		return Value{Type: t, Int: l}, pos, nil
	case l == -1:
		return Value{Type: t, Null: true}, pos, nil
	case t == '$':
		if l < 0 || l > MaxBulkLen {
			return Value{}, 0, protoErrf("bulk length %d out of range", l)
		}
		end := pos + int(l)
		if end+2 > len(b) {
			return Value{}, 0, nil
		}
		if b[end] != '\r' || b[end+1] != '\n' {
			return Value{}, 0, protoErrf("bulk string not CRLF-terminated")
		}
		return Value{Type: t, Bulk: append([]byte{}, b[pos:end]...)}, end + 2, nil
	}
	if l < 0 || l > MaxArrayLen {
		return Value{}, 0, protoErrf("array length %d out of range", l)
	}
	elems := make([]Value, 0, min(int(l), 64))
	for i := int64(0); i < l; i++ {
		e, n, err := parseValue(b[pos:], depth+1)
		if err != nil || n == 0 {
			return Value{}, 0, err
		}
		elems = append(elems, e)
		pos += n
	}
	return Value{Type: t, Array: elems}, pos, nil
}

// Writer encodes RESP frames into a buffer it owns. Nothing is sent until
// Flush; the server flushes once per pipelined batch. Until then the
// buffer can be measured and cut back (Len, Truncate), which is how a
// handler takes back a reply it had begun when its snapshot read retries.
// The zero Writer is a buffer with no stream behind it.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter wraps w with a buffered RESP encoder.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

func (w *Writer) crlf() { w.buf = append(w.buf, '\r', '\n') }

// header appends "<type><n>\r\n".
func (w *Writer) header(t byte, n int64) {
	w.buf = strconv.AppendInt(append(w.buf, t), n, 10)
	w.crlf()
}

// WriteSimple writes "+s\r\n". s must not contain CR or LF.
func (w *Writer) WriteSimple(s string) {
	w.buf = append(append(w.buf, '+'), s...)
	w.crlf()
}

// WriteError writes "-msg\r\n", sanitizing embedded line breaks.
func (w *Writer) WriteError(msg string) {
	w.buf = append(w.buf, '-')
	for i := 0; i < len(msg); i++ {
		c := msg[i]
		if c == '\r' || c == '\n' {
			c = ' '
		}
		w.buf = append(w.buf, c)
	}
	w.crlf()
}

// WriteInt writes ":n\r\n".
func (w *Writer) WriteInt(n int64) { w.header(':', n) }

// WriteBulk writes "$len\r\nb\r\n". A nil slice is written as an empty
// bulk, not a null — use WriteNull for null.
func (w *Writer) WriteBulk(b []byte) { writeBulk(w, b) }

// WriteBulkString writes s as a bulk string.
func (w *Writer) WriteBulkString(s string) { writeBulk(w, s) }

func writeBulk[T ~string | ~[]byte](w *Writer, b T) {
	w.header('$', int64(len(b)))
	w.buf = append(w.buf, b...)
	w.crlf()
}

// Bulk writes the frame of an n-byte bulk string and returns the n bytes
// between its header and its CRLF for the caller to fill in place — a
// stored value is loaded straight into its reply.
func (w *Writer) Bulk(n int) []byte {
	w.header('$', int64(n))
	w.buf = append(w.buf, make([]byte, n)...)
	w.crlf()
	return w.buf[len(w.buf)-2-n : len(w.buf)-2]
}

// WriteNull writes the null bulk "$-1\r\n".
func (w *Writer) WriteNull() { w.header('$', -1) }

// WriteArrayHeader writes "*n\r\n"; the caller then writes n elements.
func (w *Writer) WriteArrayHeader(n int) { w.header('*', int64(n)) }

// WriteCommand writes one command as an array of bulk strings — the
// client side of ReadCommand.
func (w *Writer) WriteCommand(args ...[]byte) {
	w.WriteArrayHeader(len(args))
	for _, a := range args {
		w.WriteBulk(a)
	}
}

// WriteCommandStrings writes one command from string arguments.
func (w *Writer) WriteCommandStrings(args ...string) {
	w.WriteArrayHeader(len(args))
	for _, a := range args {
		w.WriteBulkString(a)
	}
}

// Write appends already-encoded frames (io.Writer).
func (w *Writer) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// Bytes is everything written since the last Flush, valid until the next
// write.
func (w *Writer) Bytes() []byte { return w.buf }

// Len is len(Bytes()): a mark to Truncate back to.
func (w *Writer) Len() int { return len(w.buf) }

// Truncate cuts the buffer back to its first n bytes.
func (w *Writer) Truncate(n int) { w.buf = w.buf[:n] }

// Flush sends everything buffered and empties the buffer.
func (w *Writer) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.w.Write(w.buf)
	if w.buf = w.buf[:0]; cap(w.buf) > maxRetained {
		w.buf = nil
	}
	return err
}
