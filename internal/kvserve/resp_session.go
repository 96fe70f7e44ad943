package kvserve

import (
	"io"
	"net"
	"time"

	"repro/internal/resp"
)

func (s *Server) respSession(conn net.Conn) {
	r := resp.NewReader(conn)
	w := resp.NewWriter(conn)
	defer w.Flush()
	ss := s.newSession(w)
	defer ss.close()
	for {
		// One blocking read, then drain whatever a pipelining client
		// already has buffered: a request-per-reply client always sees a
		// batch of one. The commands are views into r's buffer, which
		// stands still until the next blocking read — by then the batch is
		// answered.
		args, err := r.ReadCommand()
		if err != nil {
			s.respFatal(conn, w, err)
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
			s.respFatal(conn, w, perr)
			return
		}
	}
}

// respFatal answers a protocol error before closing; the reader cannot
// resynchronize inside a malformed frame, so the session ends. I/O
// errors (client went away) close silently.
func (s *Server) respFatal(conn net.Conn, w *resp.Writer, err error) {
	if !resp.IsProtocol(err) {
		return
	}
	telErrs.Inc()
	w.WriteError("ERR protocol error: " + err.Error())
	w.Flush()
	// Half-close, then drain what the client still sends (an overlong
	// line's tail) until it closes or a second passes: closing with unread
	// bytes queued sends an RST that can destroy the error reply before
	// the client reads it.
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	io.Copy(io.Discard, conn)
}
