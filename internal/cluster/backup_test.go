package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"spritefs/internal/trace"
)

// TestBackupRecordsPinned pins the nightly backup's trace noise: which
// files the burst reads, in what order, at what time and on which server.
// The burst walks the bootstrap registry, so a change to how the registry
// stores or lists its files must leave this sequence where it is.
func TestBackupRecordsPinned(t *testing.T) {
	_, recs := runSunk(t, 1, time.Hour, 2)
	h := fnv.New64a()
	var buf [8 + 8 + 2]byte
	n := 0
	for _, r := range recs {
		if r.Flags&trace.FlagSelfTrace == 0 {
			continue
		}
		if r.Kind != trace.KindRead || r.Client != -1 || r.Length != 4096 {
			t.Fatalf("backup record %d: %+v", n, r)
		}
		binary.LittleEndian.PutUint64(buf[0:], uint64(r.Time))
		binary.LittleEndian.PutUint64(buf[8:], r.File)
		binary.LittleEndian.PutUint16(buf[16:], uint16(r.Server))
		h.Write(buf[:])
		n++
	}
	const wantN, wantSum = 238, 0x3b3e8205cc1c2a3f
	if n != wantN || h.Sum64() != wantSum {
		t.Errorf("backup records: %d, fnv64a %#x; pinned %d, %#x", n, h.Sum64(), wantN, uint64(wantSum))
	}
}
