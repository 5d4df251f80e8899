package cluster_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/netsim"
	"spritefs/internal/sim"
	"spritefs/internal/workload"
)

// rpcDigest is a netsim.Hook that perturbs nothing and folds every RPC
// the wire carries — (sim time, client, server, class, payload), in call
// order — into an FNV-1a digest. Counters and report goldens pin how much
// traffic a run produced; this pins its order, so a change that swaps two
// same-instant events shows up even when every total survives.
type rpcDigest struct {
	clock *sim.Sim
	h     hash.Hash64
	n     int
}

func newRPCDigest(clock *sim.Sim) *rpcDigest {
	return &rpcDigest{clock: clock, h: fnv.New64a()}
}

func (d *rpcDigest) Outcome(server int16, client int32, class netsim.Class, payload int64) netsim.Outcome {
	var rec [8 + 4 + 2 + 1 + 8]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(d.clock.Now()))
	binary.LittleEndian.PutUint32(rec[8:], uint32(client))
	binary.LittleEndian.PutUint16(rec[12:], uint16(server))
	rec[14] = byte(class)
	binary.LittleEndian.PutUint64(rec[15:], uint64(payload))
	d.h.Write(rec[:])
	d.n++
	return netsim.Outcome{}
}

// The digests below were last re-pinned when pmake's link began reading
// and deleting its targets' objects, a change of the workload. A change
// that claims to preserve event order must leave them alone; if one moves,
// find the same-instant tie that moved it rather than regenerating.
const (
	rpcStreamBatch40      = 0x4eb0f431ef29e1d9
	rpcStreamBatch40RPCs  = 51153
	rpcStreamLateJoin     = 0x407a2191e31ce70d
	rpcStreamLateJoinRPCs = 51195
)

// TestRPCStreamPinned runs the paper's 40-workstation cluster for two
// hours with default parameters and compares the order-sensitive digest
// of its whole RPC stream with the committed one.
func TestRPCStreamPinned(t *testing.T) {
	c := cluster.New(cluster.DefaultConfig(workload.Default(1)))
	d := newRPCDigest(c.Sim)
	c.Net.SetHook(d)
	c.Run(2 * time.Hour)
	if got := d.h.Sum64(); got != rpcStreamBatch40 || d.n != rpcStreamBatch40RPCs {
		t.Errorf("RPC stream moved: digest %#x over %d RPCs, pinned %#x over %d",
			got, d.n, uint64(rpcStreamBatch40), rpcStreamBatch40RPCs)
	}
}

// TestRPCStreamPinnedWithLateJoiners is the same run with three
// workstations brought up while the daemons are running — at instants on
// and off the 5-second grid — each of which dirties data at once and again
// later, so its delayed-write daemon has something to ship and its flushes
// interleave with the community's.
func TestRPCStreamPinnedWithLateJoiners(t *testing.T) {
	const horizon = 2 * time.Hour
	c := cluster.New(cluster.DefaultConfig(workload.Default(1)))
	d := newRPCDigest(c.Sim)
	c.Net.SetHook(d)
	c.Start(horizon)
	joins := []struct {
		at time.Duration
		id int32
	}{
		{10 * time.Minute, 40},
		{25*time.Minute + 1700*time.Millisecond, 41},
		{time.Hour + 3*time.Second, 47},
	}
	for _, j := range joins {
		c.Sim.At(j.at, func() {
			cl := c.AddClient(j.id)
			dirty := func() {
				file := cl.Create(j.id, 9000+j.id, false, false)
				h, _, _ := cl.Open(j.id, 9000+j.id, file, false, true, false)
				cl.Write(h, 3*4096+100)
				cl.Close(h)
			}
			dirty()
			c.Sim.After(7*time.Minute+2500*time.Millisecond, dirty)
		})
	}
	c.Sim.RunUntil(horizon)
	c.Finish()
	c.Sim.RunUntil(horizon + cluster.DrainTime)
	if len(c.Clients) != 43 {
		t.Fatalf("%d workstations after the joins, want 43", len(c.Clients))
	}
	if got := d.h.Sum64(); got != rpcStreamLateJoin || d.n != rpcStreamLateJoinRPCs {
		t.Errorf("RPC stream moved: digest %#x over %d RPCs, pinned %#x over %d",
			got, d.n, uint64(rpcStreamLateJoin), rpcStreamLateJoinRPCs)
	}
}
