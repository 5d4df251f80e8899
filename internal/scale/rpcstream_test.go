package scale_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"
	"time"

	"spritefs/internal/netsim"
	"spritefs/internal/scale"
	"spritefs/internal/sim"
)

// rpcDigest is a netsim.Hook that perturbs nothing and folds every RPC a
// shard's wire carries — (sim time, client, server, class, payload), in
// call order — into an FNV-1a digest (internal/cluster's rpcstream_test.go
// pins the single-segment cluster the same way).
type rpcDigest struct {
	clock *sim.Sim
	h     hash.Hash64
	n     int
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

// rpcStreamShards are the per-shard digests and RPC counts of the run
// below, last re-pinned when pmake's link began reading and deleting its
// targets' objects, a change of the workload. If one moves without such a
// change, find the same-instant tie that moved it rather than
// regenerating.
var rpcStreamShards = [4]struct {
	digest uint64
	rpcs   int
}{
	{0x8d59c3990164b191, 5189},
	{0x5ef2a9ebfc1a55c8, 4956},
	{0x48c8ed7b6bfef556, 13596},
	{0xb39202546101eb44, 5450},
}

// TestShardRPCStreamsPinned runs a sequential 4-shard topology (gateway
// traffic included: remote requests are priced on the serving shard's
// wire) and compares each shard's order-sensitive RPC digest with the
// committed one.
func TestShardRPCStreamsPinned(t *testing.T) {
	e := scale.MustNew(testConfig(42, 4))
	ds := make([]*rpcDigest, len(e.Shards))
	for i, sh := range e.Shards {
		ds[i] = &rpcDigest{clock: sh.C.Sim, h: fnv.New64a()}
		sh.C.Net.SetHook(ds[i])
	}
	e.Run(scale.RunOptions{Horizon: 2 * time.Hour})
	for i, d := range ds {
		want := rpcStreamShards[i]
		if got := d.h.Sum64(); got != want.digest || d.n != want.rpcs {
			t.Errorf("shard %d RPC stream moved: digest %#x over %d RPCs, pinned %#x over %d",
				i, got, d.n, want.digest, want.rpcs)
		}
	}
}
