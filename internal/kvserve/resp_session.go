package kvserve

import (
	"net"

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
	ss := s.newSession(w)
	for {
		// One blocking read, then drain whatever a pipelining client
		// already has buffered, mirroring the line-protocol session. The
		// commands are views into r's buffer, which stands still until
		// the next blocking read — by then the batch is answered.
		args, err := r.ReadCommand()
		if err != nil {
			s.respFatal(w, err)
			return
		}
		ss.cmds = append(ss.cmds[:0], s.resolve(args))
		var perr error
		for len(ss.cmds) < maxBatch && r.CommandAvailable() {
			more, err := r.ReadCommand()
			if err != nil {
				perr = err
				break
			}
			ss.cmds = append(ss.cmds, s.resolve(more))
		}
		quit := ss.serve()
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
