package kvserve

import (
	"net"
	"strings"

	"repro/internal/resp"
)

// ServeRESP accepts RESP2 connections until Close: the same command
// engine, registry, batch partitioner, and durability contract as the
// line protocol, behind redis framing — so redis-cli and redis-benchmark
// speak to the store directly, and values are binary-safe end to end.
// Both Serve and ServeRESP may run concurrently on one Server, serving
// one keyspace through two transports.
func (s *Server) ServeRESP(l net.Listener) error {
	return s.serveLoop(l, s.respSession)
}

func (s *Server) respSession(conn net.Conn) {
	r := resp.NewReader(conn)
	w := resp.NewWriter(conn)
	defer w.Flush()
	cmds := make([][][]byte, 0, maxBatch)
	for {
		// One blocking read, then drain whatever a pipelining client
		// already has buffered, mirroring the line-protocol session.
		args, err := r.ReadCommand()
		if err != nil {
			s.respFatal(w, err)
			return
		}
		cmds = append(cmds[:0], args)
		var perr error
		for len(cmds) < maxBatch && r.CommandAvailable() {
			more, err := r.ReadCommand()
			if err != nil {
				perr = err
				break
			}
			cmds = append(cmds, more)
		}
		replies, quit := s.dispatchBatchRESP(cmds)
		for i := range replies {
			writeRESP(w, replies[i])
		}
		w.Flush()
		if quit {
			return
		}
		if perr != nil {
			s.respFatal(w, perr)
			return
		}
	}
}

// respFatal answers a protocol error before closing; the reader cannot
// resynchronize inside a malformed frame, so the session ends. I/O
// errors (client went away) close silently.
func (s *Server) respFatal(w *resp.Writer, err error) {
	if resp.IsProtocol(err) {
		telErrs.Inc()
		w.WriteError("ERR protocol error: " + err.Error())
		w.Flush()
	}
}

// writeRESP renders one Reply as a RESP2 frame. Bare engine errors gain
// redis's ERR prefix; typed errors (WRONGTYPE) pass through so clients
// can match on the error class.
func writeRESP(w *resp.Writer, r Reply) {
	switch r.kind {
	case replySimple:
		w.WriteSimple(r.str)
	case replyBye:
		w.WriteSimple("OK")
	case replyError:
		msg := r.str
		if !strings.HasPrefix(msg, "WRONGTYPE") {
			msg = "ERR " + msg
		}
		w.WriteError(msg)
	case replyInt:
		w.WriteInt(r.n)
	case replyBulk:
		w.WriteBulk(r.bulk)
	case replyNil:
		w.WriteNull()
	case replyArray:
		w.WriteArrayHeader(len(r.arr))
		for i := range r.arr {
			writeRESP(w, r.arr[i])
		}
	}
}
