package live

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Wire format: every frame is a uint32 big-endian payload length followed
// by the payload. Request payloads are fixed-size; response payloads carry
// a trailing error string. One request is in flight per connection at a
// time (each agent owns a connection), so no request ids are needed.
const (
	reqPayloadLen  = 1 + 1 + 4 + 8 + 8 + 8 + 8 + 8 // verb,write,agent,file,handle,offset,length,deadline
	respFixedLen   = 1 + 8 + 8 + 8 + 8             // retryable,handle,n,size,simlat
	maxRespPayload = respFixedLen + 4096           // bounds the error string
)

func encodeRequest(buf []byte, req *Request, deadline time.Duration) []byte {
	buf = binary.BigEndian.AppendUint32(buf, reqPayloadLen)
	buf = append(buf, byte(req.Verb), b2u8(req.Write))
	buf = binary.BigEndian.AppendUint32(buf, uint32(req.Agent))
	buf = binary.BigEndian.AppendUint64(buf, req.File)
	buf = binary.BigEndian.AppendUint64(buf, req.Handle)
	buf = binary.BigEndian.AppendUint64(buf, uint64(req.Offset))
	buf = binary.BigEndian.AppendUint64(buf, uint64(req.Length))
	buf = binary.BigEndian.AppendUint64(buf, uint64(deadline))
	return buf
}

func decodeRequest(p []byte) (req Request, deadline time.Duration, err error) {
	if len(p) != reqPayloadLen {
		return req, 0, fmt.Errorf("live: bad request frame length %d", len(p))
	}
	req.Verb = Verb(p[0])
	if req.Verb >= NumVerbs {
		return req, 0, fmt.Errorf("live: unknown verb %d", p[0])
	}
	req.Write = p[1] != 0
	req.Agent = int32(binary.BigEndian.Uint32(p[2:]))
	req.File = binary.BigEndian.Uint64(p[6:])
	req.Handle = binary.BigEndian.Uint64(p[14:])
	req.Offset = int64(binary.BigEndian.Uint64(p[22:]))
	req.Length = int64(binary.BigEndian.Uint64(p[30:]))
	deadline = time.Duration(binary.BigEndian.Uint64(p[38:]))
	// The signed fields are a peer's raw bit patterns, and Exec indexes by Agent.
	if req.Agent < 0 || req.Offset < 0 || req.Length < 0 || deadline <= 0 {
		return req, 0, fmt.Errorf("live: request field out of range: %+v, deadline %v", req, deadline)
	}
	return req, deadline, nil
}

func encodeResponse(buf []byte, resp *Response) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(respFixedLen+len(resp.Err)))
	buf = append(buf, b2u8(resp.Retryable))
	buf = binary.BigEndian.AppendUint64(buf, resp.Handle)
	buf = binary.BigEndian.AppendUint64(buf, uint64(resp.N))
	buf = binary.BigEndian.AppendUint64(buf, uint64(resp.Size))
	buf = binary.BigEndian.AppendUint64(buf, uint64(resp.SimLat))
	buf = append(buf, resp.Err...)
	return buf
}

func decodeResponse(p []byte) (resp Response, err error) {
	if len(p) < respFixedLen {
		return resp, fmt.Errorf("live: bad response frame length %d", len(p))
	}
	resp.Retryable = p[0] != 0
	resp.Handle = binary.BigEndian.Uint64(p[1:])
	resp.N = int64(binary.BigEndian.Uint64(p[9:]))
	resp.Size = int64(binary.BigEndian.Uint64(p[17:]))
	resp.SimLat = time.Duration(binary.BigEndian.Uint64(p[25:]))
	resp.Err = string(p[respFixedLen:])
	return resp, nil
}

func b2u8(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// frameReader reads one connection's length-prefixed payloads. Header and
// payload come through one buffered reader — one Read where the peer sent
// the frame in one Write — into one buffer that grows to the largest
// payload seen: the slice next returns is good until next is called again.
type frameReader struct {
	br  *bufio.Reader
	buf []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReader(r)}
}

// next reads one payload of at most maxLen bytes.
func (f *frameReader) next(maxLen uint32) ([]byte, error) {
	hdr, err := f.br.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxLen {
		return nil, fmt.Errorf("live: frame length %d exceeds limit %d", n, maxLen)
	}
	f.br.Discard(4) // just peeked: cannot fail
	if uint32(cap(f.buf)) < n {
		f.buf = make([]byte, n)
	}
	p := f.buf[:n]
	if _, err := io.ReadFull(f.br, p); err != nil {
		return nil, err
	}
	return p, nil
}

// TCPServer accepts connections and serves the wire protocol by delegating
// each decoded request to an inner Transport (normally the in-process
// *Dispatcher).
type TCPServer struct {
	inner Transport
	ln    net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServeTCP starts a TCP frontend on addr (e.g. "127.0.0.1:0") that
// forwards requests to inner. It returns once the listener is bound; use
// Addr for the chosen address.
func ServeTCP(addr string, inner Transport) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &TCPServer{inner: inner, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's bound address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every connection, and waits for the
// handler goroutines to drain.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	// order-free: every connection is closed.
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
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
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var out []byte
	in := newFrameReader(conn)
	for {
		p, err := in.next(reqPayloadLen)
		if err != nil {
			return
		}
		req, deadline, err := decodeRequest(p)
		if err != nil {
			return // protocol error: drop the connection
		}
		resp, err := s.inner.Do(req, deadline)
		if err != nil {
			// Deadline expiry or shutdown surfaces as an error reply; the
			// client applies its own (slightly earlier) deadline too.
			resp = Response{Err: err.Error(), Retryable: errors.Is(err, ErrStopped)}
		}
		out = encodeResponse(out[:0], &resp)
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// TCPClient is the agent-side Transport over one TCP connection. It is not
// safe for concurrent use — each agent owns its own client. A request that
// times out poisons the connection (the late reply would desynchronise the
// stream), so the client drops it and redials on the next call.
type TCPClient struct {
	addr string
	conn net.Conn
	in   *frameReader // over conn
	buf  []byte
}

// DialTCP connects a client transport to a TCPServer address.
func DialTCP(addr string) (*TCPClient, error) {
	c := &TCPClient{addr: addr}
	if err := c.redial(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *TCPClient) redial() error {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.conn, c.in = conn, newFrameReader(conn)
	return nil
}

// tcpGrace pads the client-side socket deadline past the request deadline
// so the server's own deadline reply normally wins the race.
const tcpGrace = 50 * time.Millisecond

// Do sends one request and waits for its reply.
func (c *TCPClient) Do(req Request, deadline time.Duration) (Response, error) {
	if c.conn == nil {
		if err := c.redial(); err != nil {
			return Response{}, err
		}
	}
	c.buf = encodeRequest(c.buf[:0], &req, deadline)
	c.conn.SetDeadline(time.Now().Add(deadline + tcpGrace))
	if _, err := c.conn.Write(c.buf); err != nil {
		c.drop()
		return Response{}, err
	}
	p, err := c.in.next(maxRespPayload)
	if err != nil {
		c.drop()
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return Response{}, ErrDeadline
		}
		return Response{}, err
	}
	resp, err := decodeResponse(p)
	if err != nil {
		c.drop()
		return Response{}, err
	}
	if resp.Err == ErrDeadline.Error() {
		return Response{}, ErrDeadline
	}
	return resp, nil
}

func (c *TCPClient) drop() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// Close releases the connection.
func (c *TCPClient) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

var _ Transport = (*TCPClient)(nil)
