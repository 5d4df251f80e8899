package consistency

import (
	"testing"
	"time"

	"spritefs/internal/trace"
)

func rec(t time.Duration, kind trace.Kind, client int32, file uint64, flags uint8, off, n int64, handle uint64) trace.Record {
	return trace.Record{
		Time: t, Kind: kind, Client: client, User: client + 100, File: file,
		Flags: flags, Offset: off, Length: n, Handle: handle,
	}
}

func TestCollectSharedFindsCrossClientWrites(t *testing.T) {
	recs := []trace.Record{
		// File 1: written by client 0, read by client 1 -> shared.
		rec(1*time.Second, trace.KindOpen, 0, 1, trace.FlagWriteMode, 0, 0, 10),
		rec(2*time.Second, trace.KindWrite, 0, 1, 0, 0, 100, 10),
		rec(3*time.Second, trace.KindClose, 0, 1, trace.FlagWriteMode, 0, 0, 10),
		rec(4*time.Second, trace.KindOpen, 1, 1, trace.FlagReadMode, 0, 0, 11),
		rec(5*time.Second, trace.KindRead, 1, 1, 0, 0, 100, 11),
		rec(6*time.Second, trace.KindClose, 1, 1, trace.FlagReadMode, 0, 0, 11),
		// File 2: only client 0 -> not shared.
		rec(7*time.Second, trace.KindOpen, 0, 2, trace.FlagWriteMode, 0, 0, 12),
		rec(8*time.Second, trace.KindWrite, 0, 2, 0, 0, 100, 12),
		rec(9*time.Second, trace.KindClose, 0, 2, trace.FlagWriteMode, 0, 0, 12),
		// File 3: two readers, never written -> not shared.
		rec(10*time.Second, trace.KindOpen, 0, 3, trace.FlagReadMode, 0, 0, 13),
		rec(11*time.Second, trace.KindOpen, 1, 3, trace.FlagReadMode, 0, 0, 14),
	}
	st := CollectShared(recs)
	if st.TotalOpens != 5 {
		t.Errorf("TotalOpens = %d, want 5", st.TotalOpens)
	}
	for _, ev := range st.Events {
		if ev.File != 1 {
			t.Errorf("non-shared file %d in events", ev.File)
		}
	}
	if len(st.Events) != 6 {
		t.Errorf("events = %d, want 6", len(st.Events))
	}
	if st.Duration != 11*time.Second {
		t.Errorf("duration = %v", st.Duration)
	}
	if len(st.Users) != 2 {
		t.Errorf("users = %d", len(st.Users))
	}
}

func TestCollectSharedIgnoresDirectories(t *testing.T) {
	recs := []trace.Record{
		rec(1, trace.KindOpen, 0, 1, trace.FlagWriteMode|trace.FlagDirectory, 0, 0, 1),
		rec(2, trace.KindOpen, 1, 1, trace.FlagReadMode|trace.FlagDirectory, 0, 0, 2),
	}
	st := CollectShared(recs)
	if st.TotalOpens != 0 || len(st.Events) != 0 {
		t.Errorf("directories leaked: opens=%d events=%d", st.TotalOpens, len(st.Events))
	}
}

// sequentialSharing builds the classic stale-data scenario: client 0
// writes the file, then client 1 reads it repeatedly while client 0
// overwrites it again.
func sequentialSharing() SharedTrace {
	var recs []trace.Record
	// Client 0 writes v1 at t=0.
	recs = append(recs,
		rec(0, trace.KindOpen, 0, 1, trace.FlagWriteMode, 0, 0, 1),
		rec(1*time.Second, trace.KindWrite, 0, 1, 0, 0, 4096, 1),
		rec(2*time.Second, trace.KindClose, 0, 1, trace.FlagWriteMode, 0, 0, 1),
	)
	// Client 1 reads at t=10 (validates), then client 0 overwrites at
	// t=12, then client 1 reads again at t=15 (inside a 60s window:
	// stale; outside a 3s window: revalidates).
	recs = append(recs,
		rec(10*time.Second, trace.KindOpen, 1, 1, trace.FlagReadMode, 0, 0, 2),
		rec(10*time.Second+500*time.Millisecond, trace.KindRead, 1, 1, 0, 0, 4096, 2),
		rec(12*time.Second, trace.KindOpen, 0, 1, trace.FlagWriteMode, 0, 0, 3),
		rec(12*time.Second+500*time.Millisecond, trace.KindWrite, 0, 1, 0, 0, 4096, 3),
		rec(13*time.Second, trace.KindClose, 0, 1, trace.FlagWriteMode, 0, 0, 3),
		rec(15*time.Second, trace.KindRead, 1, 1, 0, 0, 4096, 2),
		rec(16*time.Second, trace.KindClose, 1, 1, trace.FlagReadMode, 0, 0, 2),
	)
	return CollectShared(recs)
}

func TestSimulateStaleLongIntervalSeesError(t *testing.T) {
	st := sequentialSharing()
	res := SimulateStale(st, 60*time.Second)
	if res.Errors != 1 {
		t.Fatalf("errors = %d, want 1", res.Errors)
	}
	if res.UsersAffected != 1 {
		t.Errorf("users affected = %d", res.UsersAffected)
	}
	if res.OpensWithError != 1 {
		t.Errorf("opens with error = %d", res.OpensWithError)
	}
	if got := res.PctOpensWithError(); got < 33.3 || got > 33.4 { // 1 of 3 opens
		t.Errorf("pct opens = %g", got)
	}
	if res.ErrorsPerHour <= 0 {
		t.Errorf("errors/hour = %g", res.ErrorsPerHour)
	}
}

func TestSimulateStaleShortIntervalAvoidsError(t *testing.T) {
	st := sequentialSharing()
	// The second read comes 4.5 s after validation: a 3-second window has
	// expired, so the client revalidates and sees fresh data.
	res := SimulateStale(st, 3*time.Second)
	if res.Errors != 0 {
		t.Errorf("errors = %d, want 0", res.Errors)
	}
}

func TestSimulateStaleShorterIntervalNeverWorse(t *testing.T) {
	st := sequentialSharing()
	long := SimulateStale(st, 60*time.Second)
	short := SimulateStale(st, 3*time.Second)
	if short.Errors > long.Errors {
		t.Errorf("shorter interval produced more errors: %d > %d", short.Errors, long.Errors)
	}
}

func TestSimulateStaleWriterSeesOwnData(t *testing.T) {
	recs := []trace.Record{
		rec(0, trace.KindOpen, 0, 1, trace.FlagWriteMode|trace.FlagReadMode, 0, 0, 1),
		rec(1*time.Second, trace.KindWrite, 0, 1, 0, 0, 100, 1),
		rec(2*time.Second, trace.KindRead, 0, 1, 0, 0, 100, 1),
		rec(3*time.Second, trace.KindClose, 0, 1, trace.FlagWriteMode, 0, 0, 1),
		// Second client makes the file shared.
		rec(4*time.Second, trace.KindOpen, 1, 1, trace.FlagReadMode, 0, 0, 2),
		rec(5*time.Second, trace.KindRead, 1, 1, 0, 0, 100, 2),
	}
	res := SimulateStale(CollectShared(recs), 60*time.Second)
	if res.Errors != 0 {
		t.Errorf("writer reading its own fresh write errored: %d", res.Errors)
	}
}

// A client that opens a file twice and closes the first open still reads
// through the second: a stale read there is an error of that open.
func TestSimulateStaleCreditsTheReadingOpen(t *testing.T) {
	recs := []trace.Record{
		rec(0, trace.KindOpen, 0, 1, trace.FlagWriteMode, 0, 0, 1),
		rec(1*time.Second, trace.KindWrite, 0, 1, 0, 0, 4096, 1),
		// Client 1 reads version 1 through its first open, opens the file
		// again (migrated) and closes the first open.
		rec(10*time.Second, trace.KindOpen, 1, 1, trace.FlagReadMode, 0, 0, 2),
		rec(11*time.Second, trace.KindRead, 1, 1, 0, 0, 4096, 2),
		rec(12*time.Second, trace.KindOpen, 1, 1, trace.FlagReadMode|trace.FlagMigrated, 0, 0, 3),
		rec(13*time.Second, trace.KindClose, 1, 1, trace.FlagReadMode, 0, 0, 2),
		// Client 0 writes version 2; client 1 reads version 1 through its
		// second open, inside a 60-second window.
		rec(14*time.Second, trace.KindWrite, 0, 1, 0, 0, 4096, 1),
		rec(15*time.Second, trace.KindRead, 1, 1, trace.FlagMigrated, 0, 4096, 3),
		rec(16*time.Second, trace.KindClose, 1, 1, trace.FlagReadMode|trace.FlagMigrated, 0, 0, 3),
		rec(17*time.Second, trace.KindClose, 0, 1, trace.FlagWriteMode, 0, 0, 1),
	}
	res := SimulateStale(CollectShared(recs), 60*time.Second)
	if res.Errors != 1 || res.OpensWithError != 1 || res.MigratedOpensWithError != 1 {
		t.Errorf("errors %d, opens with error %d, migrated opens with error %d; want 1, 1, 1",
			res.Errors, res.OpensWithError, res.MigratedOpensWithError)
	}
}

// cwsEpisode builds a concurrent write-sharing episode: clients 0 and 1
// both have the file open, client 1 writing, with ops flagged Shared.
func cwsEpisode(opBytes int64, nOps int) SharedTrace {
	var recs []trace.Record
	t := time.Duration(0)
	recs = append(recs,
		rec(t, trace.KindOpen, 0, 1, trace.FlagReadMode, 0, 0, 1),
		rec(t+time.Second, trace.KindOpen, 1, 1, trace.FlagWriteMode, 0, 0, 2),
	)
	t += 2 * time.Second
	off := int64(0)
	for i := 0; i < nOps; i++ {
		recs = append(recs,
			rec(t, trace.KindWrite, 1, 1, trace.FlagShared, off, opBytes, 2),
			rec(t+500*time.Millisecond, trace.KindRead, 0, 1, trace.FlagShared, off, opBytes, 1),
		)
		off += opBytes
		t += time.Second
	}
	recs = append(recs,
		rec(t, trace.KindClose, 1, 1, trace.FlagWriteMode, 0, 0, 2),
		rec(t+time.Second, trace.KindClose, 0, 1, trace.FlagReadMode, 0, 0, 1),
	)
	return CollectShared(recs)
}

func TestOverheadSpriteIsExactlyAppTraffic(t *testing.T) {
	o := SimulateOverhead(cwsEpisode(1000, 10))
	if o.AppOps != 20 || o.AppBytes != 20000 {
		t.Fatalf("app traffic: ops=%d bytes=%d", o.AppOps, o.AppBytes)
	}
	if o.Bytes[AlgSprite] != o.AppBytes {
		t.Errorf("sprite bytes = %d, want %d", o.Bytes[AlgSprite], o.AppBytes)
	}
	if o.RPCs[AlgSprite] != o.AppOps {
		t.Errorf("sprite rpcs = %d, want %d", o.RPCs[AlgSprite], o.AppOps)
	}
	if o.ByteRatio(AlgSprite) != 1.0 || o.RPCRatio(AlgSprite) != 1.0 {
		t.Errorf("sprite ratios: %g / %g", o.ByteRatio(AlgSprite), o.RPCRatio(AlgSprite))
	}
}

func TestOverheadModifiedEqualsSpriteDuringPureCWS(t *testing.T) {
	// The entire episode is concurrent write-sharing, so the modified
	// scheme never re-enables caching: identical traffic to Sprite.
	o := SimulateOverhead(cwsEpisode(1000, 10))
	if o.Bytes[AlgModified] != o.Bytes[AlgSprite] {
		t.Errorf("modified bytes = %d, sprite = %d", o.Bytes[AlgModified], o.Bytes[AlgSprite])
	}
}

func TestOverheadTokenThrashesOnFineGrainedSharing(t *testing.T) {
	// Fine-grained alternating reads and writes: the token bounces
	// between clients, flushing and re-reading whole 4 KB blocks for each
	// small access — the paper's "worse than the Sprite approach" case.
	o := SimulateOverhead(cwsEpisode(100, 10))
	if o.Bytes[AlgToken] <= o.Bytes[AlgSprite] {
		t.Errorf("token (%d bytes) should exceed sprite (%d) at fine grain",
			o.Bytes[AlgToken], o.Bytes[AlgSprite])
	}
}

func TestOverheadTokenWinsForRepeatedReadsOfStableData(t *testing.T) {
	// One writer writes once; a second client then reads the same block
	// many times while both remain open (still CWS, so Sprite keeps
	// passing reads through, but the token scheme caches after the first
	// fetch).
	var recs []trace.Record
	recs = append(recs,
		rec(0, trace.KindOpen, 1, 1, trace.FlagWriteMode, 0, 0, 2),
		rec(time.Second, trace.KindOpen, 0, 1, trace.FlagReadMode, 0, 0, 1),
		rec(2*time.Second, trace.KindWrite, 1, 1, trace.FlagShared, 0, 4096, 2),
	)
	t0 := 3 * time.Second
	for i := 0; i < 50; i++ {
		recs = append(recs, rec(t0, trace.KindRead, 0, 1, trace.FlagShared, 0, 4096, 1))
		t0 += 100 * time.Millisecond
	}
	recs = append(recs,
		rec(t0, trace.KindClose, 1, 1, trace.FlagWriteMode, 0, 0, 2),
		rec(t0+time.Second, trace.KindClose, 0, 1, trace.FlagReadMode, 0, 0, 1),
	)
	o := SimulateOverhead(CollectShared(recs))
	if o.RPCs[AlgToken] >= o.RPCs[AlgSprite] {
		t.Errorf("token rpcs = %d, sprite = %d; token should win on re-reads",
			o.RPCs[AlgToken], o.RPCs[AlgSprite])
	}
}

func TestOverheadEmptyTrace(t *testing.T) {
	o := SimulateOverhead(SharedTrace{})
	if o.ByteRatio(AlgSprite) != 0 || o.RPCRatio(AlgToken) != 0 {
		t.Error("empty trace produced nonzero ratios")
	}
}

func TestStaleEmptyTrace(t *testing.T) {
	res := SimulateStale(SharedTrace{Users: map[int32]bool{}}, time.Minute)
	if res.Errors != 0 || res.ErrorsPerHour != 0 || res.PctUsersAffected() != 0 {
		t.Errorf("empty trace: %+v", res)
	}
}
