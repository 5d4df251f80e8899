package consistency

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/trace"
	"spritefs/internal/workload"
)

// referenceCollectShared is the reference model of SharedCollector: the
// two-pass distillation it replaced, which finds the shared files in a
// first pass over the whole trace and collects their events in a second.
func referenceCollectShared(recs []trace.Record) SharedTrace {
	st := SharedTrace{Users: make(map[int32]bool)}
	type fileUse struct {
		clients map[int32]bool
		written bool
	}
	uses := make(map[uint64]*fileUse)
	for i := range recs {
		r := &recs[i]
		if r.Time > st.Duration {
			st.Duration = r.Time
		}
		st.Users[r.User] = true
		if r.IsDirectory() {
			continue
		}
		switch r.Kind {
		case trace.KindOpen:
			st.TotalOpens++
			if r.IsMigrated() {
				st.MigratedOpens++
			}
		case trace.KindRead, trace.KindWrite, trace.KindClose:
		default:
			continue
		}
		u := uses[r.File]
		if u == nil {
			u = &fileUse{clients: make(map[int32]bool)}
			uses[r.File] = u
		}
		u.clients[r.Client] = true
		if r.Kind == trace.KindWrite || (r.Kind == trace.KindOpen && r.Flags&trace.FlagWriteMode != 0) {
			u.written = true
		}
	}
	shared := make(map[uint64]bool)
	for f, u := range uses {
		if len(u.clients) >= 2 && u.written {
			shared[f] = true
		}
	}
	for i := range recs {
		r := &recs[i]
		if !shared[r.File] || r.IsDirectory() {
			continue
		}
		ev := Event{
			Time:     r.Time,
			Client:   r.Client,
			User:     r.User,
			File:     r.File,
			Handle:   r.Handle,
			Offset:   r.Offset,
			Bytes:    r.Length,
			Migrated: r.IsMigrated(),
			Shared:   r.Flags&trace.FlagShared != 0,
		}
		switch r.Kind {
		case trace.KindOpen:
			ev.Kind = EvOpen
			ev.Write = r.Flags&trace.FlagWriteMode != 0
		case trace.KindClose:
			ev.Kind = EvClose
			ev.Write = r.Flags&trace.FlagWriteMode != 0
		case trace.KindRead:
			ev.Kind = EvRead
		case trace.KindWrite:
			ev.Kind = EvWrite
		default:
			continue
		}
		st.Events = append(st.Events, ev)
	}
	return st
}

// TestSharedCollectorMatchesReference runs the collector and its reference
// model over traces captured from the cluster — every Section 4 trace
// configuration, a short horizon each — over the random access patterns
// the property tests use, and over a file that is shared only because one
// client opened it for writing (the captured traces write every such file).
func TestSharedCollectorMatchesReference(t *testing.T) {
	traces := map[string][]trace.Record{
		"random": randomRecords(7, 3000),
		"opened for writing, never written": {
			rec(1*time.Second, trace.KindOpen, 0, 1, trace.FlagWriteMode, 0, 0, 10),
			rec(2*time.Second, trace.KindClose, 0, 1, trace.FlagWriteMode, 0, 0, 10),
			rec(3*time.Second, trace.KindOpen, 1, 1, trace.FlagReadMode, 0, 0, 11),
			rec(4*time.Second, trace.KindRead, 1, 1, 0, 0, 100, 11),
			rec(5*time.Second, trace.KindClose, 1, 1, trace.FlagReadMode, 0, 0, 11),
		},
	}
	for n := 1; n <= 8; n++ {
		p := workload.TraceParams(n)
		p.NumClients, p.DailyUsers, p.OccasionalUsers = 12, 9, 9
		cfg := cluster.DefaultConfig(p)
		cfg.SamplePeriod = 0
		cl := cluster.New(cfg)
		cl.Run(time.Hour)
		recs, err := trace.Collect(trace.Merge(cl.PerServerStreams()...))
		if err != nil {
			t.Fatal(err)
		}
		traces[fmt.Sprintf("trace %d", n)] = recs
	}
	for name, recs := range traces {
		got, want := CollectShared(recs), referenceCollectShared(recs)
		if len(want.Events) == 0 {
			t.Errorf("%s: the reference finds no shared events; the case checks nothing", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: collector and reference differ: %d/%d events, %d/%d opens, %d/%d users",
				name, len(got.Events), len(want.Events), got.TotalOpens, want.TotalOpens, len(got.Users), len(want.Users))
		}
	}
}

// fuzzRecordSize is how many input bytes FuzzSharedCollector decodes into
// one record.
const fuzzRecordSize = 8

// decodeRecords turns fuzz input into a time-ordered trace over a few
// clients and files, so that files are shared often.
func decodeRecords(data []byte) []trace.Record {
	var recs []trace.Record
	var now time.Duration
	for ; len(data) >= fuzzRecordSize; data = data[fuzzRecordSize:] {
		now += time.Duration(data[0]) * time.Millisecond
		recs = append(recs, trace.Record{
			Time:   now,
			Kind:   trace.Kind(data[1] % 12), // invalid kinds included
			Flags:  data[2],
			Client: int32(data[3] % 4),
			User:   int32(data[3] / 4 % 4),
			File:   uint64(data[4] % 5),
			Handle: uint64(data[5]),
			Offset: int64(binary.LittleEndian.Uint16(data[6:])),
			Length: int64(data[5]) * 16,
		})
	}
	return recs
}

// FuzzSharedCollector: on any trace the collector distills exactly what the
// reference model does.
func FuzzSharedCollector(f *testing.F) {
	f.Add([]byte{})
	// Client 0 opens file 1 for writing; client 1 reads it.
	f.Add([]byte{
		1, byte(trace.KindOpen), trace.FlagWriteMode, 0, 1, 1, 0, 0,
		1, byte(trace.KindOpen), trace.FlagReadMode, 1, 1, 2, 0, 0,
		1, byte(trace.KindRead), trace.FlagShared, 1, 1, 2, 9, 0,
		1, byte(trace.KindClose), trace.FlagReadMode, 1, 1, 2, 0, 0,
	})
	// One client alone reads and writes file 2, a directory is shared.
	f.Add([]byte{
		0, byte(trace.KindOpen), trace.FlagWriteMode | trace.FlagReadMode, 2, 2, 3, 0, 0,
		0, byte(trace.KindWrite), 0, 2, 2, 3, 0, 1,
		0, byte(trace.KindRead), 0, 2, 2, 3, 0, 1,
		5, byte(trace.KindOpen), trace.FlagWriteMode | trace.FlagDirectory, 0, 3, 4, 0, 0,
		5, byte(trace.KindOpen), trace.FlagDirectory, 1, 3, 5, 0, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := decodeRecords(data)
		if got, want := CollectShared(recs), referenceCollectShared(recs); !reflect.DeepEqual(got, want) {
			t.Errorf("collector and reference differ:\n got %+v\nwant %+v", got, want)
		}
	})
}
