// Package drivers holds spritebench's layer drivers: short, seeded loops
// that exercise one layer of the program alone, through its exported API,
// the way the OSDF/XRootD benchmarks measure origin, cache and client tiers
// on their own before the federation as a whole. A driver's number says
// what one operation of the layer costs with nothing else in the way; the
// traced pass of a workload says how much of a real run the layer took.
// When a workload's end-to-end metric moves, the two together say whether
// the layer got slower or merely busier.
//
// Every driver measures for at least MinTime and reports the median cost
// over batches of operations, which shrugs off a batch that a noisy
// neighbour or a collection landed on.
package drivers

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"spritefs/bench/harness"
	"spritefs/internal/client"
	"spritefs/internal/fscache"
	"spritefs/internal/live"
	"spritefs/internal/metrics"
	"spritefs/internal/netsim"
	"spritefs/internal/server"
	"spritefs/internal/sim"
	"spritefs/internal/trace"
)

// MinTime is how long each driver measures; tests shorten it.
var MinTime = time.Second

// RunAll runs every driver once and returns the *.driver_* per-layer
// metrics. A driver that cannot run (no loopback network, say) reports 0;
// the workloads' own checks, not the drivers, decide correctness.
func RunAll(seed int64) map[string]float64 {
	enc, dec := TraceCodec(seed)
	return map[string]float64{
		"sim.driver_ns_per_event":       SimEvent(seed),
		"fscache.driver_hit_ns":         CacheHit(),
		"fscache.driver_miss_evict_ns":  CacheMissEvict(),
		"fscache.driver_write_clean_ns": CacheWriteClean(),
		"netsim.driver_ns_per_rpc":      NetRPC(seed),
		"server.driver_open_close_ns":   ServerOpenClose(),
		"client.driver_ns_per_op":       ClientCycle(),
		"metrics.driver_register_ns":    MetricsRegister(),
		"trace.encode_mrec_per_s":       enc,
		"trace.decode_mrec_per_s":       dec,
		"live.tcp_roundtrip_p50_us":     TCPRoundTrip(seed),
	}
}

// measure repeats batch — ops operations — for at least MinTime and returns
// the median nanoseconds per operation over the batches.
func measure(ops int, batch func()) float64 {
	var per []float64
	for start := time.Now(); time.Since(start) < MinTime || len(per) == 0; {
		t0 := time.Now()
		batch()
		per = append(per, float64(time.Since(t0))/float64(ops))
	}
	return harness.Median(per)
}

// SimEvent is the scheduler alone: a standing backlog of 10 000 one-shot
// events, each of which re-arms itself when it fires (After + Step), over
// 1 000 recurring timers on the wheel.
func SimEvent(seed int64) float64 {
	const backlog, tickers, batch = 10_000, 1_000, 50_000
	rng := rand.New(rand.NewSource(seed))
	delays := make([]time.Duration, 1024)
	for i := range delays {
		delays[i] = time.Duration(1 + rng.Int63n(int64(time.Second)))
	}
	s := sim.New(seed)
	next := 0
	var rearm func()
	rearm = func() {
		next++
		s.After(delays[next%len(delays)], rearm)
	}
	for i := 0; i < backlog; i++ {
		s.After(delays[i%len(delays)], rearm)
	}
	for i := 0; i < tickers; i++ {
		s.Every(delays[i%len(delays)], 50*time.Millisecond+delays[(i*7)%len(delays)]/4, func() {})
	}
	return measure(batch, func() {
		for i := 0; i < batch; i++ {
			s.Step()
		}
	})
}

// CacheHit reads blocks that are resident.
func CacheHit() float64 {
	const blocks, batch = 256, 100_000
	c := fscache.New(4096)
	const size = blocks * fscache.BlockSize
	c.Read(1, 0, size, size, fscache.Attr{}, 0)
	now := time.Duration(0)
	return measure(batch, func() {
		for i := 0; i < batch; i++ {
			now++
			c.Read(1, int64(i%blocks)*fscache.BlockSize, fscache.BlockSize, size, fscache.Attr{}, now)
		}
	})
}

// CacheMissEvict cycles through a file twice the cache's capacity, so every
// read misses and evicts the least recently used block.
func CacheMissEvict() float64 {
	const capacity, batch = 256, 50_000
	c := fscache.New(capacity)
	const blocks = 2 * capacity
	now := time.Duration(0)
	return measure(batch, func() {
		for i := 0; i < batch; i++ {
			now++
			c.Read(1, int64(i%blocks)*fscache.BlockSize, fscache.BlockSize, blocks*fscache.BlockSize, fscache.Attr{}, now)
		}
	})
}

// CacheWriteClean dirties one block a simulated second across 16 files and
// runs the cleaner every 64 writes, as the 30-second daemon would find it.
func CacheWriteClean() float64 {
	const batch = 50_000
	c := fscache.New(4096)
	now := time.Duration(0)
	return measure(batch, func() {
		for i := 0; i < batch; i++ {
			now += time.Second
			c.Write(uint64(i%16+1), 0, fscache.BlockSize, 0, fscache.Attr{}, now)
			if i%64 == 0 {
				c.Clean(now + fscache.WritebackDelay)
			}
		}
	})
}

// NetRPC charges RPCs of every traffic class and a spread of payloads to
// one Ethernet segment.
func NetRPC(seed int64) float64 {
	const batch = 100_000
	rng := rand.New(rand.NewSource(seed))
	payloads := make([]int64, 1024)
	for i := range payloads {
		payloads[i] = rng.Int63n(16 * fscache.BlockSize)
	}
	n := netsim.New(netsim.DefaultConfig())
	return measure(batch, func() {
		for i := 0; i < batch; i++ {
			n.RPC(int32(i%40), netsim.Class(i%int(netsim.NumClasses)), payloads[i%len(payloads)])
		}
	})
}

// ServerOpenClose is one server's open/close bookkeeping: 40 clients
// opening and closing 1 000 files for reading.
func ServerOpenClose() float64 {
	const files, batch = 1_000, 50_000
	srv := server.New(0)
	ids := make([]uint64, files)
	for i := range ids {
		ids[i] = srv.Create(false, 0).ID
	}
	now := time.Duration(0)
	return measure(batch, func() {
		for i := 0; i < batch; i++ {
			now++
			id, cl := ids[i%files], int32(i%40)
			if _, err := srv.Open(id, cl, false, now); err == nil {
				srv.Close(id, cl, false, false, now) // closing what was just opened cannot fail
			}
		}
	})
}

// soloCoordinator is the consistency coordinator of a one-client rig:
// with no second client there is nobody to recall from or to disable.
type soloCoordinator struct{}

func (soloCoordinator) RecallFrom(int32, uint64)       {}
func (soloCoordinator) DisableCaching([]int32, uint64) {}

// ClientCycle is the client kernel's open → read 4 KB → write 4 KB → close
// path on a rig of one client, one server and one segment. The cost is per
// cycle of four calls.
func ClientCycle() float64 {
	const files, batch = 64, 20_000
	s := sim.New(1)
	srv := server.New(0)
	net := netsim.New(netsim.DefaultConfig())
	c := client.New(client.DefaultConfig(0), s, net, func(uint64) *server.Server { return srv }, srv, client.NopTracer{})
	c.SetCoordinator(soloCoordinator{})
	ids := make([]uint64, files)
	for i := range ids {
		ids[i] = c.Create(1, 100, false, false)
		h, _, err := c.Open(1, 100, ids[i], false, true, false)
		if err != nil {
			return 0
		}
		c.Write(h, 8*fscache.BlockSize)
		c.Close(h) // a handle just opened closes
	}
	return measure(batch, func() {
		for i := 0; i < batch; i++ {
			h, _, err := c.Open(1, 100, ids[i%files], true, true, false)
			if err != nil {
				continue
			}
			c.Read(h, fscache.BlockSize)
			c.Write(h, fscache.BlockSize)
			c.Close(h)
		}
	})
}

// MetricsRegister is the registry's cost per metric instance over its
// whole life: registered under a label set, incremented, exported once by
// Snapshot. One batch is a fresh registry of 10 families × 200 instances.
func MetricsRegister() float64 {
	const families, instances = 10, 200
	descs := make([]metrics.Desc, families)
	for f := range descs {
		descs[f] = metrics.Desc{Name: "bench_family_" + strconv.Itoa(f) + "_total", Unit: "ops", Help: "driver", Kind: metrics.Counter}
	}
	labels := make([]metrics.Labels, instances)
	for i := range labels {
		labels[i] = metrics.Labels{metrics.L("client", strconv.Itoa(i))}
	}
	vars := make([]int64, families*instances)
	return measure(families*instances, func() {
		r := metrics.New()
		for f := range descs {
			for i := range labels {
				r.IntVar(descs[f], labels[i], &vars[f*instances+i])
			}
		}
		for i := range vars {
			vars[i]++
		}
		r.Snapshot()
	})
}

// traceRecords synthesizes a plausible record stream from the seed.
func traceRecords(seed int64, n int) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	kinds := []trace.Kind{trace.KindOpen, trace.KindRead, trace.KindRead, trace.KindWrite, trace.KindClose}
	recs := make([]trace.Record, n)
	now := time.Duration(0)
	for i := range recs {
		now += time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
		recs[i] = trace.Record{
			Time:   now,
			Kind:   kinds[i%len(kinds)],
			Flags:  trace.FlagReadMode,
			Server: int16(rng.Intn(4)),
			Client: int32(rng.Intn(40)),
			User:   int32(rng.Intn(50)),
			Proc:   int32(rng.Intn(5000)),
			File:   uint64(rng.Int63n(1 << 40)),
			Handle: uint64(i/len(kinds) + 1),
			Offset: rng.Int63n(1 << 20),
			Length: rng.Int63n(1 << 16),
			Size:   rng.Int63n(1 << 22),
		}
	}
	return recs
}

// TraceCodec encodes and decodes 200 000 records in the binary trace
// format, in memory, and returns million records per second each way.
func TraceCodec(seed int64) (encode, decode float64) {
	const n = 200_000
	recs := traceRecords(seed, n)
	var buf bytes.Buffer
	encNs := measure(n, func() {
		buf.Reset()
		w, err := trace.NewWriter(&buf)
		if err != nil {
			return
		}
		for i := range recs {
			w.Write(&recs[i]) // bytes.Buffer does not fail
		}
		w.Flush()
	})
	data := buf.Bytes()
	ok := true
	decNs := measure(n, func() {
		rd, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			ok = false
			return
		}
		got, err := trace.Collect(rd)
		ok = ok && err == nil && len(got) == n
	})
	if !ok {
		return 0, 0
	}
	return 1e3 / encNs, 1e3 / decNs
}

// TCPRoundTrip is the median getattr round trip, in microseconds, over one
// loopback connection to a live service: the TCP codec, two socket hops
// and the dispatcher loop, with no simulated service time in it.
func TCPRoundTrip(seed int64) float64 {
	us, err := tcpRoundTrip(seed)
	if err != nil {
		return 0
	}
	return us
}

func tcpRoundTrip(seed int64) (float64, error) {
	svc, err := live.NewService(live.ServiceConfig{Agents: 1, Seed: seed})
	if err != nil {
		return 0, err
	}
	if err := svc.Start(); err != nil {
		return 0, err
	}
	defer svc.Drain()
	srv, err := live.ServeTCP("127.0.0.1:0", live.NewDispatcher(svc.WC, svc.Exec))
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	conn, err := live.DialTCP(srv.Addr())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	files := svc.AgentFiles(0)
	if len(files) == 0 {
		return 0, fmt.Errorf("drivers: live service has no files")
	}
	var us []float64
	for start := time.Now(); time.Since(start) < MinTime || len(us) == 0; {
		t0 := time.Now()
		resp, err := conn.Do(live.Request{Verb: live.VerbGetattr, File: files[len(us)%len(files)].ID}, time.Second)
		if err != nil {
			return 0, err
		}
		if !resp.OK() {
			return 0, fmt.Errorf("drivers: getattr: %s", resp.Err)
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return harness.Median(us), nil
}
