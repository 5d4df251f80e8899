package live

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"spritefs/internal/sim"
)

// TestCodecRoundTrip pushes requests and responses through encode/decode
// and requires byte-exact field recovery, including the extremes of the
// signed request fields, error strings, and the frame length prefix.
func TestCodecRoundTrip(t *testing.T) {
	reqs := []Request{
		{},
		{Verb: VerbOpen, Agent: 7, File: 0xdeadbeefcafe, Write: true},
		{Verb: VerbRead, Agent: math.MaxInt32, Handle: ^uint64(0), Offset: math.MaxInt64, Length: 1 << 40},
		{Verb: VerbGetattr, Agent: 39, File: 42},
	}
	for i, in := range reqs {
		frame := encodeRequest(nil, &in, 1500*time.Millisecond)
		if len(frame) != 4+reqPayloadLen {
			t.Fatalf("req %d: frame length %d, want %d", i, len(frame), 4+reqPayloadLen)
		}
		out, deadline, err := decodeRequest(frame[4:])
		if err != nil {
			t.Fatalf("req %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("req %d: round trip %+v -> %+v", i, in, out)
		}
		if deadline != 1500*time.Millisecond {
			t.Errorf("req %d: deadline %v", i, deadline)
		}
	}

	resps := []Response{
		{},
		{Handle: 99, N: -1, Size: 1 << 50, SimLat: 3 * time.Millisecond},
		{Err: "live: read on unknown handle", Retryable: true},
		{Err: strings.Repeat("x", 4096)},
	}
	for i, in := range resps {
		frame := encodeResponse(nil, &in)
		out, err := decodeResponse(frame[4:])
		if err != nil {
			t.Fatalf("resp %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("resp %d: round trip mismatch", i)
		}
	}
}

// TestCodecRejectsBadFrames checks the defensive paths: wrong request
// length, unknown verb, truncated response, oversized frame.
func TestCodecRejectsBadFrames(t *testing.T) {
	if _, _, err := decodeRequest(make([]byte, reqPayloadLen-1)); err == nil {
		t.Error("short request frame accepted")
	}
	bad := make([]byte, reqPayloadLen)
	bad[0] = byte(NumVerbs)
	if _, _, err := decodeRequest(bad); err == nil {
		t.Error("unknown verb accepted")
	}
	if _, err := decodeResponse(make([]byte, respFixedLen-1)); err == nil {
		t.Error("short response frame accepted")
	}
	var in Response
	frame := encodeResponse(nil, &in)
	// Corrupt the length prefix beyond the reader's limit.
	frame[0], frame[1], frame[2], frame[3] = 0xff, 0xff, 0xff, 0xff
	if _, err := newFrameReader(strings.NewReader(string(frame))).next(maxRespPayload); err == nil {
		t.Error("oversized frame accepted")
	}
}

// TestOutOfRangeRequests is the hostile-peer table: a frame whose signed
// fields carry a negative bit pattern, or whose deadline is not positive,
// is a protocol error at the TCP seam, and the same agent ids handed
// straight to the in-process seam (Exec, AgentFiles) come back as error
// replies rather than an index panic on the dispatcher loop.
func TestOutOfRangeRequests(t *testing.T) {
	svc, err := NewService(ServiceConfig{Agents: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	file := svc.AgentFiles(0)[0].ID
	cases := []struct {
		name     string
		req      Request
		deadline time.Duration
		reject   bool // decodeRequest must refuse the frame
	}{
		{"in range", Request{Verb: VerbGetattr, Agent: 2, File: file}, time.Second, false},
		{"agent past the population", Request{Verb: VerbGetattr, Agent: math.MaxInt32, File: file}, time.Second, false},
		{"zero length", Request{Verb: VerbRead, Handle: 1}, time.Second, false},
		{"agent 0xFFFFFFFF", Request{Verb: VerbGetattr, Agent: -1, File: file}, time.Second, true},
		{"agent 0x80000000", Request{Verb: VerbOpen, Agent: math.MinInt32, File: file}, time.Second, true},
		{"negative offset", Request{Verb: VerbRead, Handle: 1, Offset: -8, Length: 8}, time.Second, true},
		{"negative length", Request{Verb: VerbWrite, Handle: 1, Length: -1}, time.Second, true},
		{"zero deadline", Request{Verb: VerbGetattr, File: file}, 0, true},
		{"negative deadline", Request{Verb: VerbGetattr, File: file}, -time.Second, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := encodeRequest(nil, &tc.req, tc.deadline)
			got, _, err := decodeRequest(frame[4:])
			if (err != nil) != tc.reject {
				t.Fatalf("decodeRequest error = %v, want rejection: %v", err, tc.reject)
			}
			if err == nil && got != tc.req {
				t.Fatalf("decoded %+v, want %+v", got, tc.req)
			}
			// Exec sees the request as sent, whatever the TCP seam decided:
			// the in-process transport has no decoder in front of it.
			resp := svc.Exec(&tc.req)
			if tc.req.Agent < 0 && resp.OK() {
				t.Errorf("Exec accepted agent %d", tc.req.Agent)
			}
			if tc.req.Agent >= 0 && tc.req.Verb == VerbGetattr && !resp.OK() {
				t.Errorf("Exec refused agent %d: %s", tc.req.Agent, resp.Err)
			}
			if files := svc.AgentFiles(int(tc.req.Agent)); (len(files) == 0) != (tc.req.Agent < 0) {
				t.Errorf("AgentFiles(%d) returned %d files", tc.req.Agent, len(files))
			}
		})
	}
}

// echoTransport is a test double standing in for the dispatcher behind a
// TCPServer.
type echoTransport struct {
	fn func(Request, time.Duration) (Response, error)
}

func (e *echoTransport) Do(req Request, d time.Duration) (Response, error) { return e.fn(req, d) }
func (e *echoTransport) Close() error                                      { return nil }

// TestTCPLoopback runs requests through a real socket pair and checks the
// fields survive, server-side errors surface as error replies, and a
// server-side ErrDeadline maps back to the client's ErrDeadline.
func TestTCPLoopback(t *testing.T) {
	inner := &echoTransport{fn: func(req Request, d time.Duration) (Response, error) {
		switch req.Verb {
		case VerbOpen:
			return Response{Handle: req.File + 1, Size: 4096, SimLat: time.Millisecond}, nil
		case VerbRead:
			return Response{}, ErrDeadline
		case VerbWrite:
			return Response{Err: "boom", Retryable: true}, nil
		default:
			return Response{N: req.Length}, nil
		}
	}}
	srv, err := ServeTCP("127.0.0.1:0", inner)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	resp, err := cl.Do(Request{Verb: VerbOpen, File: 41}, time.Second)
	if err != nil || resp.Handle != 42 || resp.Size != 4096 || resp.SimLat != time.Millisecond {
		t.Fatalf("open over loopback: err=%v resp=%+v", err, resp)
	}
	if _, err := cl.Do(Request{Verb: VerbRead}, time.Second); !errors.Is(err, ErrDeadline) {
		t.Fatalf("server-side deadline: err=%v, want ErrDeadline", err)
	}
	resp, err = cl.Do(Request{Verb: VerbWrite}, time.Second)
	if err != nil || resp.Err != "boom" || !resp.Retryable {
		t.Fatalf("error reply: err=%v resp=%+v", err, resp)
	}
	// The connection survives all of the above: one more normal request.
	resp, err = cl.Do(Request{Verb: VerbClose, Length: 9}, time.Second)
	if err != nil || resp.N != 9 {
		t.Fatalf("post-error request: err=%v resp=%+v", err, resp)
	}
}

// TestTCPClientRedialsAfterServerClose checks the poison-and-redial path:
// when the server drops connections, the next Do dials fresh instead of
// failing forever.
func TestTCPClientRedialsAfterServerClose(t *testing.T) {
	inner := &echoTransport{fn: func(req Request, d time.Duration) (Response, error) {
		return Response{N: req.Length}, nil
	}}
	srv, err := ServeTCP("127.0.0.1:0", inner)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cl, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Do(Request{Length: 1}, time.Second); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := cl.Do(Request{Length: 2}, 200*time.Millisecond); err == nil {
		t.Fatal("Do succeeded against a closed server")
	}
	srv2, err := ServeTCP(addr, inner)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	resp, err := cl.Do(Request{Length: 3}, time.Second)
	if err != nil || resp.N != 3 {
		t.Fatalf("redial after server restart: err=%v resp=%+v", err, resp)
	}
}

// BenchmarkTCPRoundTrip is one getattr-sized request over a loopback
// connection to a dispatcher on a bare clock: the codec, the framing, two
// socket hops and the request path, with no model behind them.
func BenchmarkTCPRoundTrip(b *testing.B) {
	wc := New(sim.New(1))
	wc.Start()
	defer wc.Stop()
	srv, err := ServeTCP("127.0.0.1:0", NewDispatcher(wc, echoExec))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialTCP(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp, err := cl.Do(Request{Verb: VerbGetattr, Handle: 42}, time.Second); err != nil || resp.Handle != 42 {
			b.Fatalf("round trip %d: %+v, %v", i, resp, err)
		}
	}
}
