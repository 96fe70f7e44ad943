package resp

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

func readAll(t *testing.T, input string) [][][]byte {
	t.Helper()
	r := NewReader(strings.NewReader(input))
	var cmds [][][]byte
	for {
		args, err := r.ReadCommand()
		if err == io.EOF {
			return cmds
		}
		if err != nil {
			t.Fatalf("ReadCommand(%q): %v", input, err)
		}
		// Arguments are views into the reader's buffer: copy to retain.
		kept := make([][]byte, len(args))
		for i, a := range args {
			kept[i] = append([]byte{}, a...)
		}
		cmds = append(cmds, kept)
	}
}

func TestReadCommandArray(t *testing.T) {
	cmds := readAll(t, "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nv a\nb\r\n")
	if len(cmds) != 1 {
		t.Fatalf("got %d commands", len(cmds))
	}
	want := [][]byte{[]byte("SET"), []byte("k"), []byte("v a\nb")}
	if !reflect.DeepEqual(cmds[0], want) {
		t.Fatalf("args = %q, want %q", cmds[0], want)
	}
}

func TestReadCommandInline(t *testing.T) {
	cmds := readAll(t, "PING\r\n\r\nGET  key1\n")
	if len(cmds) != 2 {
		t.Fatalf("got %d commands: %q", len(cmds), cmds)
	}
	if string(cmds[0][0]) != "PING" {
		t.Fatalf("first = %q", cmds[0])
	}
	if len(cmds[1]) != 2 || string(cmds[1][1]) != "key1" {
		t.Fatalf("second = %q", cmds[1])
	}
}

func TestReadCommandSkipsEmptyArrays(t *testing.T) {
	cmds := readAll(t, "*0\r\n*-1\r\n*1\r\n$4\r\nPING\r\n")
	if len(cmds) != 1 || string(cmds[0][0]) != "PING" {
		t.Fatalf("cmds = %q", cmds)
	}
}

func TestReadCommandErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
		proto bool // ProtoError wanted; else an I/O error
	}{
		{"torn array header", "*2\r\n$3\r\nGE", false},
		{"torn bulk body", "*1\r\n$10\r\nabc", false},
		{"oversized bulk", "*1\r\n$999999999\r\n", true},
		{"negative bulk", "*1\r\n$-1\r\n", true},
		{"nested array", "*1\r\n*1\r\n$1\r\na\r\n", true},
		{"bad length", "*x\r\n", true},
		{"missing crlf", "*1\r\n$1\r\na!!", true},
		{"huge multibulk", "*9999999\r\n", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(strings.NewReader(tc.input))
			_, err := r.ReadCommand()
			if err == nil {
				t.Fatalf("%q parsed without error", tc.input)
			}
			if got := IsProtocol(err); got != tc.proto {
				t.Fatalf("%q: IsProtocol = %v (err %v), want %v", tc.input, got, err, tc.proto)
			}
		})
	}
}

func TestCommandAvailable(t *testing.T) {
	empty := NewReader(strings.NewReader(""))
	if empty.CommandAvailable() {
		t.Fatal("available on empty buffer")
	}
	// Half a command: not available.
	torn := NewReader(strings.NewReader("*2\r\n$3\r\nGET\r\n"))
	torn.fill() // buffer the stream without consuming
	if torn.CommandAvailable() {
		t.Fatal("available with a torn frame buffered")
	}
	full := "*2\r\n$3\r\nGET\r\n$1\r\nk\r\n*1\r\n$4\r\nPING\r\n"
	r := NewReader(strings.NewReader(full))
	r.fill()
	if !r.CommandAvailable() {
		t.Fatal("not available with two complete commands buffered")
	}
	if args, err := r.ReadCommand(); err != nil || string(args[0]) != "GET" {
		t.Fatalf("first command: %q, %v", args, err)
	}
	if !r.CommandAvailable() {
		t.Fatal("second command not available")
	}
	if args, err := r.ReadCommand(); err != nil || string(args[0]) != "PING" {
		t.Fatalf("second command: %q, %v", args, err)
	}
	if r.CommandAvailable() {
		t.Fatal("available after the buffer drained")
	}
	// Skippable units ahead of a torn frame are no command: had they
	// counted as one, the read they announce would block on the stream —
	// and refill the buffer under the views of the batch before it.
	skips := NewReader(strings.NewReader("*0\r\n\r\n*2\r\n$3\r\nGET\r\n"))
	skips.fill()
	if skips.CommandAvailable() {
		t.Fatal("available with only skippable units and a torn frame buffered")
	}
}

// TestArgumentViews pins the lifetime contract: commands read while
// CommandAvailable holds are views into one buffer and stay intact
// together; a frame larger than the buffer grows it.
func TestArgumentViews(t *testing.T) {
	big := bytes.Repeat([]byte("v"), 3*readBufSize/2)
	var in bytes.Buffer
	w := NewWriter(&in)
	w.WriteCommandStrings("SET", "a", "1")
	w.WriteCommandStrings("SET", "b", "2")
	w.WriteCommand([]byte("SET"), []byte("big"), big[:MaxBulkLen], big[:MaxBulkLen])
	w.WriteCommandStrings("GET", "a")
	w.Flush()
	r := NewReader(&in)
	first, err := r.ReadCommand()
	if err != nil || !r.CommandAvailable() {
		t.Fatalf("first command: %v (second available: %v)", err, err == nil)
	}
	second, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if string(first[1]) != "a" || string(first[2]) != "1" || string(second[1]) != "b" {
		t.Fatalf("batched views clobbered: %q %q", first, second)
	}
	if cap(first[2]) != len(first[2]) {
		t.Fatalf("argument view has spare capacity %d: an append would write into the buffer", cap(first[2])-len(first[2]))
	}
	// The third frame is larger than the buffer: reading it grows it.
	third, err := r.ReadCommand()
	if err != nil || len(third) != 4 || !bytes.Equal(third[3], big[:MaxBulkLen]) {
		t.Fatalf("oversized frame: %d args, %v", len(third), err)
	}
	if len(r.buf) <= readBufSize {
		t.Fatalf("buffer still %d bytes after a %d-byte frame", len(r.buf), 2*MaxBulkLen)
	}
	if last, err := r.ReadCommand(); err != nil || string(last[0]) != "GET" {
		t.Fatalf("command after the oversized frame: %q, %v", last, err)
	}
}

// TestWriterBulkAndTruncate covers the in-place reply path: Bulk hands out
// the window a stored value is loaded into, Truncate takes back a reply an
// abandoned attempt had begun.
func TestWriterBulkAndTruncate(t *testing.T) {
	var w Writer
	w.WriteSimple("OK")
	mark := w.Len()
	copy(w.Bulk(5), "hel") // an attempt dies with the window half filled
	w.Truncate(mark)
	copy(w.Bulk(5), "hello")
	w.WriteInt(-1234567890123)
	if got, want := string(w.Bytes()), "+OK\r\n$5\r\nhello\r\n:-1234567890123\r\n"; got != want {
		t.Fatalf("buffer = %q, want %q", got, want)
	}
	v, n, err := ParseValue(w.Bytes()[mark:])
	if err != nil || n != len("$5\r\nhello\r\n") || string(v.Bulk) != "hello" {
		t.Fatalf("ParseValue = %+v, %d, %v", v, n, err)
	}
	if _, n, err := ParseValue([]byte("$5\r\nhel")); n != 0 || err != nil {
		t.Fatalf("torn reply: n = %d, err = %v, want 0, nil", n, err)
	}
}

func TestWriterValueRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteSimple("OK")
	w.WriteError("ERR boom")
	w.WriteInt(-42)
	w.WriteBulk([]byte("a\x00b"))
	w.WriteNull()
	w.WriteArrayHeader(2)
	w.WriteBulkString("x")
	w.WriteInt(7)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	checks := []func(v Value){
		func(v Value) {
			if v.Type != '+' || v.Str != "OK" {
				t.Fatalf("simple: %+v", v)
			}
		},
		func(v Value) {
			if v.Type != '-' || v.Str != "ERR boom" {
				t.Fatalf("error: %+v", v)
			}
		},
		func(v Value) {
			if v.Type != ':' || v.Int != -42 {
				t.Fatalf("int: %+v", v)
			}
		},
		func(v Value) {
			if v.Type != '$' || string(v.Bulk) != "a\x00b" {
				t.Fatalf("bulk: %+v", v)
			}
		},
		func(v Value) {
			if v.Type != '$' || !v.Null {
				t.Fatalf("null: %+v", v)
			}
		},
		func(v Value) {
			if v.Type != '*' || len(v.Array) != 2 || string(v.Array[0].Bulk) != "x" || v.Array[1].Int != 7 {
				t.Fatalf("array: %+v", v)
			}
		},
	}
	for i, check := range checks {
		v, err := r.ReadValue()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		check(v)
	}
}

func TestWriteCommandRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	args := [][]byte{[]byte("SET"), []byte("bin"), {0, 1, 2, '\r', '\n', ' ', 0xff}}
	w.WriteCommand(args...)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, args) {
		t.Fatalf("round trip: %q != %q", got, args)
	}
}
