package fscache

import (
	"testing"
	"time"
)

func TestDiscardAllMeasuresLoss(t *testing.T) {
	c := New(64)
	now := 10 * time.Second
	c.Write(1, 0, 6000, 0, Attr{}, now)           // two dirty blocks
	c.Write(2, 0, 100, 0, Attr{}, 25*time.Second) // one newer dirty block
	c.Read(3, 0, 4096, 4096, Attr{}, now)         // one clean block

	loss := c.DiscardAll(30 * time.Second)
	if loss.Blocks != 4 || loss.DirtyBlocks != 3 {
		t.Errorf("loss = %+v, want 4 blocks / 3 dirty", loss)
	}
	if loss.DirtyBytes != 6000+100 {
		t.Errorf("dirty bytes lost = %d, want 6100", loss.DirtyBytes)
	}
	if loss.MaxDirtyAge != 20*time.Second {
		t.Errorf("max dirty age = %v, want 20s", loss.MaxDirtyAge)
	}
	if c.NumBlocks() != 0 || c.DirtyBytes() != 0 {
		t.Errorf("cache not empty after crash: %d blocks, %d dirty bytes", c.NumBlocks(), c.DirtyBytes())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("post-crash invariants: %v", err)
	}
	// Counters (the measurement infrastructure) survive the crash.
	if c.Stats().All.BytesWritten != 6100 {
		t.Errorf("BytesWritten = %d after crash, want 6100", c.Stats().All.BytesWritten)
	}
}

func TestDirtyFilesSortedAndRecoverFlush(t *testing.T) {
	c := New(64)
	c.Write(9, 0, 100, 0, Attr{}, 0)
	c.Write(2, 0, 200, 0, Attr{}, 0)
	c.Read(5, 0, 100, 100, Attr{}, 0) // clean only

	got := c.DirtyFiles()
	if len(got) != 2 || got[0] != 2 || got[1] != 9 {
		t.Fatalf("DirtyFiles = %v, want [2 9]", got)
	}
	wbs := c.Flush(9, CleanRecover, time.Second)
	if len(wbs) != 1 || wbs[0].Reason != CleanRecover || wbs[0].Bytes != 100 {
		t.Fatalf("Flush(CleanRecover) = %+v", wbs)
	}
	if c.FileDirty(9) {
		t.Error("file 9 still dirty after recovery flush")
	}
	if st := c.Stats(); st.Cleaned[CleanRecover] != 1 {
		t.Errorf("CleanRecover count = %d, want 1", st.Cleaned[CleanRecover])
	}
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	c := New(64)
	c.Write(1, 0, 100, 0, Attr{}, 0)
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("clean cache flagged: %v", err)
	}
	c.dirtyBytes += 7 // corrupt the accounting
	if err := c.CheckInvariants(); err == nil {
		t.Error("corrupted dirtyBytes not detected")
	}
}
