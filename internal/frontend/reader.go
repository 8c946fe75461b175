package frontend

import (
	"errors"
	"io"
	"os"
	"time"
)

// serveConn is a connection's reader and the one place it is closed: it
// blocks in Read (the runtime netpoller parks and wakes it), decodes
// and runs whatever arrived as its own batch, and returns on EOF, a read
// error, a decoded close, an idle reap or kill().
//
// The idle deadline is armed lazily so a busy connection never touches a
// runtime timer: it is set once, and again only when it fires. A
// deadline that fires on a connection that read anything since it was
// armed is re-armed; one that fires on a connection silent for the whole
// period is a reap.
func (s *Server) serveConn(c *conn) {
	defer func() {
		c.dead.Store(true)
		c.nc.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.met.Active.Add(-1)
		s.readerWG.Done()
	}()
	idle := s.cfg.IdleTimeout
	if idle > 0 {
		c.nc.SetReadDeadline(time.Now().Add(idle))
	}
	active := false
	for {
		if c.rlen == len(c.rbuf) {
			// decodeConn grows the buffer up to the codec's bound; a
			// still-full buffer here holds a request Decode will refuse.
			if !s.decodeConn(c) || c.rlen == len(c.rbuf) {
				return
			}
		}
		n, err := c.nc.Read(c.rbuf[c.rlen:])
		if n > 0 {
			active = true
			c.rlen += n
			s.met.BytesIn.Add(uint64(n))
			if !s.decodeConn(c) {
				return
			}
		}
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				if err == io.EOF { // what is left may be a last, unterminated request
					c.req.EOF = true
					s.decodeConn(c)
				}
				return
			}
			if !active {
				s.met.IdleReaps.Add(1)
				c.wbuf = append(c.wbuf, s.traits.Idle...)
				c.flush()
				return
			}
			active = false
			c.nc.SetReadDeadline(time.Now().Add(idle))
		}
	}
}
