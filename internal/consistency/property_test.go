package consistency

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"spritefs/internal/trace"
)

// randomSharedTrace generates a random but well-formed multi-client access
// pattern over a handful of files.
func randomSharedTrace(seed int64, nEvents int) SharedTrace {
	return CollectShared(randomRecords(seed, nEvents))
}

// randomRecords builds the raw trace records behind randomSharedTrace. A
// client may open a file it already holds open, up to three times, in
// either mode, and any of its opens may close first. Time moves in whole
// tenths of a second, so events often fall exactly on a delayed write's
// 30-second deadline.
func randomRecords(seed int64, nEvents int) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	var recs []trace.Record
	type openState struct {
		handle uint64
		write  bool
	}
	open := map[[2]int64][]openState{} // (client,file) -> its opens
	var handle uint64
	now := time.Duration(0)
	for i := 0; i < nEvents; i++ {
		now += time.Duration(rng.Intn(50)) * 100 * time.Millisecond
		client := int32(rng.Intn(4))
		file := uint64(rng.Intn(3) + 1)
		key := [2]int64{int64(client), int64(file)}
		opens := open[key]
		r := trace.Record{Time: now, Client: client, User: client + 10, File: file}
		switch n := rng.Intn(8); {
		case len(opens) == 0 || n == 0 && len(opens) < 3: // open
			handle++
			st := openState{handle: handle, write: rng.Intn(2) == 0}
			open[key] = append(opens, st)
			r.Kind, r.Handle, r.Flags = trace.KindOpen, st.handle, modeFlags(st.write)
		case n <= 2: // close
			j := rng.Intn(len(opens))
			st := opens[j]
			open[key] = append(opens[:j], opens[j+1:]...)
			r.Kind, r.Handle, r.Flags = trace.KindClose, st.handle, modeFlags(st.write)
		default: // read or write
			st := opens[rng.Intn(len(opens))]
			r.Kind = trace.KindRead
			if st.write && rng.Intn(2) == 0 {
				r.Kind = trace.KindWrite
			}
			r.Handle = st.handle
			r.Flags = trace.FlagShared // mark as CWS-window ops for the overhead sim
			r.Offset, r.Length = int64(rng.Intn(64*1024)), int64(rng.Intn(8000)+1)
		}
		recs = append(recs, r)
	}
	return recs
}

// modeFlags returns the open-mode flags of an open for reading, or for
// reading and writing.
func modeFlags(write bool) uint8 {
	if write {
		return trace.FlagReadMode | trace.FlagWriteMode
	}
	return trace.FlagReadMode
}

// Property: the Sprite algorithm moves exactly the application bytes and
// issues exactly one RPC per op, on any input.
func TestOverheadSpriteExactInvariant(t *testing.T) {
	f := func(seed int64) bool {
		st := randomSharedTrace(seed, 300)
		o := SimulateOverhead(st)
		return o.Bytes[AlgSprite] == o.AppBytes && o.RPCs[AlgSprite] == o.AppOps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: no algorithm reports negative traffic, and with zero app ops
// every algorithm is silent.
func TestOverheadNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		st := randomSharedTrace(seed, 200)
		o := SimulateOverhead(st)
		for a := 0; a < NumAlgs; a++ {
			if o.Bytes[a] < 0 || o.RPCs[a] < 0 {
				return false
			}
		}
		if o.AppOps == 0 && (o.Bytes[AlgModified] != 0 || o.Bytes[AlgToken] != 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: stale errors never exceed the number of shared reads, and a
// zero-length validity window produces no errors (every read revalidates).
func TestStaleBounds(t *testing.T) {
	f := func(seed int64) bool {
		st := randomSharedTrace(seed, 300)
		reads := int64(0)
		for _, ev := range st.Events {
			if ev.Kind == EvRead {
				reads++
			}
		}
		r := SimulateStale(st, 60*time.Second)
		if r.Errors < 0 || r.Errors > reads {
			return false
		}
		if r.OpensWithError > r.Errors {
			return false
		}
		zero := SimulateStale(st, 0)
		return zero.Errors == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: widening the polling interval never reduces errors (more
// staleness exposure), on traces where reads poll repeatedly.
func TestStaleMonotoneInInterval(t *testing.T) {
	f := func(seed int64) bool {
		st := randomSharedTrace(seed, 400)
		prev := int64(0)
		for _, iv := range []time.Duration{time.Second, 10 * time.Second, 100 * time.Second} {
			r := SimulateStale(st, iv)
			if r.Errors < prev {
				return false
			}
			prev = r.Errors
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
