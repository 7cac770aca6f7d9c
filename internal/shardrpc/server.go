package shardrpc

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/api"
	"repro/internal/relation"
)

// Backend is what a shard server serves. The service layer implements it
// over its catalog and executor; shardrpc itself stays a pure transport
// with no dependency on the serving stack.
type Backend interface {
	// Hello describes the server: relations, partition layout, owned
	// shards and their bounds.
	Hello() HelloInfo
	// OpenShards opens the canonical keyed stream of a set of owned
	// shards, named ascending, for one access configuration: the merge of
	// their streams, or the one shard's own stream. A stream that merges
	// should be a *relation.MergedSource, whose count of inputs read the
	// row frames report. Errors are returned to the client as structured
	// api.Errors (an unowned shard or unknown relation should yield
	// api.CodeNotFound).
	OpenShards(relName string, shards []int, access string, query []float64) (relation.KeyedSource, error)
}

// Server accepts shardrpc connections and answers them from a Backend.
// Each connection is handled by one goroutine and carries at most one
// open stream (the target of VerbNext).
type Server struct {
	backend Backend

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps backend; call Serve or Listen to start accepting.
func NewServer(backend Backend) *Server {
	return &Server{backend: backend, conns: make(map[net.Conn]struct{})}
}

// Listen binds addr and starts serving in a background goroutine,
// returning the bound address (useful with a ":0" addr).
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := s.Serve(ln); err != nil {
		ln.Close()
		return nil, err
	}
	return ln.Addr(), nil
}

// Serve starts accepting on an existing listener in a background
// goroutine. It is how chaos builds interpose a fault-injecting
// listener wrapper between the network and the server.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("shardrpc: server is closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.serve(ln)
	}()
	return nil
}

func (s *Server) serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, closes every live connection, and waits for
// handlers to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// handle runs one connection's request/response loop until the peer
// hangs up or a transport error occurs. Structured failures (unknown
// relation, bad verb) are answered in-band and do not end the loop.
func (s *Server) handle(conn net.Conn) {
	var (
		// stream is the connection's current stream (VerbNext target),
		// closed when it ends, is replaced, or the connection goes.
		stream relation.KeyedSource
		// buf is the connection's one frame buffer: a request is read into
		// it, then its response is built in it and written in one write.
		buf []byte
	)
	defer func() {
		closeStream(stream)
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		p, err := readPayload(conn, maxFrame, buf)
		if err != nil {
			return
		}
		req, err := decodeRequest(p)
		var apiErr *api.Error
		if err != nil && !errors.As(err, &apiErr) {
			return // not a request: drop the connection, the client retries
		}
		var resp Response
		rows := false // answer with a row frame of stream, not with resp
		switch {
		case err != nil:
		case req.Verb == VerbPing:
			// Empty success response.
		case req.Verb == VerbHello:
			h := s.backend.Hello()
			resp.Hello = &h
		case req.Verb == VerbPull:
			closeStream(stream)
			stream, err = s.backend.OpenShards(req.Relation, req.Shards, req.Access, req.Query)
			if err == nil {
				err = skip(stream, req.Offset)
			}
			if err != nil {
				closeStream(stream)
				stream = nil
			}
			rows = err == nil
		case req.Verb == VerbNext:
			if stream == nil {
				err = api.Errorf(api.CodeBadRequest, "next without an open stream on this connection")
			}
			rows = err == nil
		default:
			err = api.Errorf(api.CodeBadRequest, "unknown verb %q", req.Verb)
		}
		if rows {
			var done bool
			buf, done, err = appendRowFrame(p, stream, batchSize(req.Batch))
			if done || err != nil {
				closeStream(stream)
				stream = nil
			}
		}
		if err != nil {
			resp.Err, rows = asWireError(err), false
		}
		if !rows {
			if buf, err = appendJSONFrame(p[:0], &resp); err != nil {
				return
			}
		}
		if _, err = conn.Write(buf); err != nil {
			return
		}
	}
}

// closeStream ends a stream (nil when the connection has none) the way an
// engine session ends its sources, so that one holding reusable scratch —
// an R-tree traversal's queue — hands it on.
func closeStream(stream relation.KeyedSource) {
	if c, ok := stream.(relation.Closer); ok {
		c.Close()
	}
}

// batchSize clamps a requested batch to [1, MaxBatch].
func batchSize(n int) int {
	switch {
	case n <= 0:
		return DefaultBatch
	case n > MaxBatch:
		return MaxBatch
	}
	return n
}

// skip advances a freshly opened stream past n rows (the client's resume
// offset). Exhausting during the skip is fine — the following fill
// reports Done.
func skip(src relation.KeyedSource, n int) error {
	for i := 0; i < n; i++ {
		if _, _, _, err := src.NextKeyed(); err != nil {
			if errors.Is(err, relation.ErrExhausted) {
				return nil
			}
			return err
		}
	}
	return nil
}

// asWireError shapes any backend failure as a structured api.Error so
// clients always get a code they can act on.
func asWireError(err error) *api.Error {
	var apiErr *api.Error
	if errors.As(err, &apiErr) {
		return apiErr
	}
	return api.Errorf(api.CodeInternal, "%s", fmt.Sprintf("%v", err))
}
