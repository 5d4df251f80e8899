package live

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"
)

// The wire codec is the one place bytes from another process reach the
// dispatcher loop. Each target holds a decoder to "never panics", and
// holds what it accepts to one encoding: re-encoding the decoded value
// gives the payload back, except that a boolean byte above 1 (tolerated
// as true) comes back as 1.

func FuzzDecodeRequest(f *testing.F) {
	for _, req := range []Request{
		{},
		{Verb: VerbOpen, Agent: 7, File: 0xdeadbeefcafe, Write: true},
		{Verb: VerbRead, Agent: math.MaxInt32, Handle: ^uint64(0), Offset: math.MaxInt64, Length: 1 << 40},
		{Verb: VerbGetattr, Agent: -1, File: 42}, // rejected: negative agent
		{Verb: VerbWrite, Handle: 3, Offset: -8}, // rejected: negative offset
		{Verb: VerbWrite, Handle: 3, Length: -1}, // rejected: negative length
		{Verb: NumVerbs, Agent: 1},               // rejected: unknown verb
	} {
		f.Add(encodeRequest(nil, &req, time.Second)[4:])
	}
	f.Add(encodeRequest(nil, &Request{}, 0)[4:])           // rejected: no deadline
	f.Add(encodeRequest(nil, &Request{}, time.Second)[5:]) // rejected: short frame
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		req, deadline, err := decodeRequest(p)
		if err != nil {
			return
		}
		if req.Verb >= NumVerbs || req.Agent < 0 || req.Offset < 0 || req.Length < 0 || deadline <= 0 {
			t.Fatalf("accepted out-of-range request %+v (deadline %v)", req, deadline)
		}
		want := append([]byte(nil), p...)
		want[1] = b2u8(p[1] != 0)
		if got := encodeRequest(nil, &req, deadline)[4:]; !bytes.Equal(got, want) {
			t.Fatalf("re-encoded request differs:\n got %x\nwant %x", got, want)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	for _, resp := range []Response{
		{},
		{Handle: 99, N: -1, Size: 1 << 50, SimLat: 3 * time.Millisecond},
		{Err: "live: read on unknown handle", Retryable: true},
		{Err: strings.Repeat("x", 4096)},
	} {
		f.Add(encodeResponse(nil, &resp)[4:])
	}
	f.Add(encodeResponse(nil, &Response{})[5:]) // rejected: short frame
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		resp, err := decodeResponse(p)
		if err != nil {
			return
		}
		want := append([]byte(nil), p...)
		want[0] = b2u8(p[0] != 0)
		if got := encodeResponse(nil, &resp)[4:]; !bytes.Equal(got, want) {
			t.Fatalf("re-encoded response differs:\n got %x\nwant %x", got, want)
		}
	})
}

// FuzzReadFrame feeds the framer arbitrary streams under the two limits
// the protocol uses (a fuzzed limit would only test the allocator): it
// returns exactly the announced payload, never one past the limit.
func FuzzReadFrame(f *testing.F) {
	req := encodeRequest(nil, &Request{Verb: VerbRead, Length: 4096}, time.Second)
	resp := encodeResponse(nil, &Response{Err: "boom"})
	f.Add(req, true)
	f.Add(resp, false)
	f.Add(append(req, resp...), true) // trailing bytes stay unread
	f.Add(resp, true)                 // rejected: over the request limit
	f.Add(req[:len(req)-1], true)     // rejected: truncated payload
	f.Add(req[:3], true)              // rejected: truncated header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, false)
	f.Fuzz(func(t *testing.T, in []byte, request bool) {
		limit := uint32(maxRespPayload)
		if request {
			limit = reqPayloadLen
		}
		p, err := newFrameReader(bytes.NewReader(in)).next(limit)
		if err != nil {
			return
		}
		n := binary.BigEndian.Uint32(in)
		if n > limit || !bytes.Equal(p, in[4:4+n]) {
			t.Fatalf("frame announced %d bytes (limit %d), got %d: %x", n, limit, len(p), p)
		}
	})
}
