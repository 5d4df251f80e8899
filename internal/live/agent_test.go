package live

import (
	"testing"

	"spritefs/internal/trace"
)

// TestReplaySourceMapsHandles drives replay sources by hand, in the order
// the agent loop calls them: next, then observe with the reply. Agent 0
// gets only its own open/read/write/close records (no other client's, no
// self-trace record, no delete); each read or write goes out on the live
// handle its open's reply returned, also with two files open at once; one
// whose open failed, or whose open was never replayed, is skipped; and a
// partition with no opens retires.
func TestReplaySourceMapsHandles(t *testing.T) {
	svc := &Service{
		agents:   3,
		perAgent: [][]FileRef{{{ID: 100, Size: 8192}}, {{ID: 200, Size: 8192}}, {{ID: 300, Size: 8192}}},
		shared:   []FileRef{{ID: 900, Size: 4096}},
	}
	cfg := &FleetConfig{Agents: 3, Replay: []trace.Record{
		{Client: 0, Kind: trace.KindOpen, Handle: 10, File: 7, Flags: trace.FlagWriteMode},
		{Client: 1, Kind: trace.KindRead, Handle: 20, Offset: 9000, Length: 9},
		{Client: 3, Kind: trace.KindOpen, Handle: 11, File: 8},
		{Client: 0, Kind: trace.KindRead, Handle: 11, Offset: 1, Length: 512},
		{Client: 0, Kind: trace.KindWrite, Handle: 10, Offset: 2, Length: 0},
		{Client: 0, Kind: trace.KindOpen, Handle: 30, File: 9, Flags: trace.FlagSelfTrace},
		{Client: 0, Kind: trace.KindDelete, File: 7},
		{Client: 0, Kind: trace.KindRead, Handle: 30, Offset: 3, Length: 64},
		{Client: 0, Kind: trace.KindClose, Handle: 10},
		{Client: 1, Kind: trace.KindClose, Handle: 20},
		{Client: 0, Kind: trace.KindOpen, Handle: 40, File: 7},
		{Client: 0, Kind: trace.KindRead, Handle: 40, Offset: 4, Length: 64},
		{Client: 3, Kind: trace.KindClose, Handle: 11},
	}}

	r := newReplaySource(0, cfg, svc)
	if len(r.recs) != 9 {
		t.Errorf("agent 0 keeps %d records, want its 9 opens, reads, writes and closes", len(r.recs))
	}
	for _, rec := range r.recs {
		if rec.Client%3 != 0 || rec.Kind == trace.KindDelete || rec.Flags&trace.FlagSelfTrace != 0 {
			t.Errorf("agent 0 keeps %+v", rec)
		}
	}
	step := func(want Request, reply Response) {
		t.Helper()
		got, ok := r.next()
		if !ok || got != want {
			t.Fatalf("next() = %+v, %v; want %+v", got, ok, want)
		}
		r.observe(&got, &reply, nil)
	}
	open := func(file uint64, write bool) Request {
		return Request{Verb: VerbOpen, Agent: 0, File: r.remap(file), Write: write}
	}
	for _, f := range []uint64{7, 8} {
		if id := r.remap(f); id != 100 && id != 900 {
			t.Fatalf("trace file %d remapped to %d, outside agent 0's files", f, id)
		}
	}

	step(open(7, true), Response{Handle: 1001})
	step(open(8, false), Response{Handle: 1002})
	step(Request{Verb: VerbRead, Agent: 0, Handle: 1002, Offset: 1, Length: 512}, Response{N: 512})
	step(Request{Verb: VerbWrite, Agent: 0, Handle: 1001, Offset: 2, Length: 4096}, Response{N: 4096})
	// The read on handle 30 is skipped: its open was the tracer's own.
	step(Request{Verb: VerbClose, Agent: 0, Handle: 1001}, Response{})
	step(open(7, false), Response{Err: "live: no such file"})
	// The read on handle 40 is skipped: its open failed. The close of 11
	// goes out on 1002, then the cycle starts over.
	step(Request{Verb: VerbClose, Agent: 0, Handle: 1002}, Response{})
	step(open(7, true), Response{Handle: 1003})
	step(open(8, false), Response{Handle: 1004})
	step(Request{Verb: VerbRead, Agent: 0, Handle: 1004, Offset: 1, Length: 512}, Response{N: 512})

	if got, ok := newReplaySource(1, cfg, svc).next(); ok {
		t.Errorf("agent 1 has no opens, yet next() = %+v", got)
	}
	if got, ok := newReplaySource(2, cfg, svc).next(); ok {
		t.Errorf("agent 2 has no records, yet next() = %+v", got)
	}
}
