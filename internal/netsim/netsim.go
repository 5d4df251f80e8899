package netsim

import (
	"fmt"
	"time"
)

// Class attributes a transfer to one of the paper's traffic categories.
type Class uint8

// Traffic classes. FileRead/FileWrite are cache-mediated block transfers;
// Paging classes carry VM traffic (which in Sprite is file traffic to
// executable and backing files); Shared classes are the uncacheable
// pass-through operations on write-shared files; DirRead is naming traffic;
// Control covers opens, closes, consistency callbacks and other small RPCs.
const (
	FileRead Class = iota
	FileWrite
	PagingRead
	PagingWrite
	SharedRead
	SharedWrite
	DirRead
	Control
	NumClasses
)

var classNames = [NumClasses]string{
	"file-read", "file-write", "paging-read", "paging-write",
	"shared-read", "shared-write", "dir-read", "control",
}

// String returns the class name.
func (c Class) String() string {
	if c < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// IsRead reports whether the class moves bytes from server to client.
func (c Class) IsRead() bool {
	switch c {
	case FileRead, PagingRead, SharedRead, DirRead:
		return true
	}
	return false
}

// Traffic accumulates bytes and operation counts per class.
type Traffic struct {
	Bytes [NumClasses]int64
	Ops   [NumClasses]int64
}

// TotalBytes returns the sum of bytes over all classes.
func (t *Traffic) TotalBytes() int64 {
	var sum int64
	for _, b := range t.Bytes {
		sum += b
	}
	return sum
}

// ReadBytes returns bytes moved server-to-client.
func (t *Traffic) ReadBytes() int64 {
	var sum int64
	for c := Class(0); c < NumClasses; c++ {
		if c.IsRead() {
			sum += t.Bytes[c]
		}
	}
	return sum
}

// Config holds the interconnect parameters.
type Config struct {
	// BandwidthBps is wire bandwidth in bytes/second. The measured
	// cluster's Ethernet was 10 Mbit/s = 1.25e6 B/s.
	BandwidthBps float64
	// BaseLatency is fixed per-RPC overhead (protocol processing plus
	// server handling). Tuned so a 4 KB block fetch costs ~6.5 ms, the
	// figure the paper quotes for Sprite.
	BaseLatency time.Duration
}

// DefaultConfig returns the parameters of the measured 1991 cluster.
func DefaultConfig() Config {
	return Config{
		BandwidthBps: 1.25e6,
		BaseLatency:  3 * time.Millisecond,
	}
}

// AnyServer marks an RPC whose destination server is unknown or
// irrelevant (e.g. VM backing traffic). Fault hooks see it verbatim and
// apply only client-scoped faults to such transfers.
const AnyServer int16 = -1

// Outcome is a fault hook's verdict on one RPC: how many times the packet
// was lost and retransmitted before succeeding, and how much extra time
// the transfer stalled (retransmission timeouts, partition waits, injected
// link delay). The RPC always completes — the simulator is analytic, so
// faults surface as latency and counters, never as lost state.
type Outcome struct {
	Dropped    int // retransmissions before the RPC got through
	ExtraDelay time.Duration
}

// Hook inspects every RPC and returns the fault-induced perturbation.
// internal/faults installs one to drive partitions, drop windows and
// delay windows from the simulation clock; a nil hook means a healthy
// network. server is AnyServer when the destination is not modeled.
type Hook interface {
	Outcome(server int16, client int32, class Class, payload int64) Outcome
}

// FaultStats counts the perturbations a hook applied at the wire.
type FaultStats struct {
	DroppedOps int64         // RPCs that lost at least one packet
	Retransmit int64         // total retransmissions
	StalledOps int64         // RPCs that incurred extra delay
	StallTime  time.Duration // total extra delay added by faults
}

// Network is the shared interconnect. It is passive: callers ask for the
// cost of an RPC and schedule their own delays on the simulator clock;
// Network records cluster-wide byte accounting per traffic class (Tables
// 5 and 7), cumulative busy time and the fault hook's perturbations. The
// client id an RPC carries is the fault hook's (partitions are keyed by
// it); no per-client traffic is kept.
type Network struct {
	cfg    Config
	total  Traffic
	busy   time.Duration
	hook   Hook
	faults FaultStats
}

// New returns a network with the given configuration. A zero bandwidth is
// a configuration error and panics.
func New(cfg Config) *Network {
	if cfg.BandwidthBps <= 0 {
		panic("netsim: non-positive bandwidth")
	}
	if cfg.BaseLatency < 0 {
		panic("netsim: negative base latency")
	}
	return &Network{cfg: cfg}
}

// SetHook installs (or, with nil, removes) the fault hook consulted on
// every RPC.
func (n *Network) SetHook(h Hook) { n.hook = h }

// FaultStats returns a snapshot of the fault perturbation counters.
func (n *Network) FaultStats() FaultStats { return n.faults }

// RPC accounts one remote procedure call of the given class carrying
// payload bytes on behalf of client, and returns its service time.
// Negative payloads are a programming error and panic.
func (n *Network) RPC(client int32, class Class, payload int64) time.Duration {
	return n.RPCTo(AnyServer, client, class, payload)
}

// RPCTo is RPC with the destination server named, so fault hooks can
// scope outages to one server. Wire-busy time excludes fault stalls (the
// wire is idle while a client waits out a partition or retransmission
// timeout); StallTime accumulates them separately.
func (n *Network) RPCTo(server int16, client int32, class Class, payload int64) time.Duration {
	if payload < 0 {
		panic(fmt.Sprintf("netsim: negative payload %d", payload))
	}
	if class >= NumClasses {
		panic(fmt.Sprintf("netsim: bad class %d", class))
	}
	n.total.Bytes[class] += payload
	n.total.Ops[class]++
	d := n.cfg.BaseLatency + time.Duration(float64(payload)/n.cfg.BandwidthBps*float64(time.Second))
	n.busy += d
	if n.hook != nil {
		o := n.hook.Outcome(server, client, class, payload)
		if o.Dropped > 0 {
			n.faults.DroppedOps++
			n.faults.Retransmit += int64(o.Dropped)
		}
		if o.ExtraDelay > 0 {
			n.faults.StalledOps++
			n.faults.StallTime += o.ExtraDelay
			d += o.ExtraDelay
		}
	}
	return d
}

// Total returns a copy of the cluster-wide traffic accounting.
func (n *Network) Total() Traffic { return n.total }

// Busy returns cumulative wire-busy time; divided by elapsed virtual time
// it gives utilization (the paper's "four percent of the bandwidth of an
// Ethernet" check).
func (n *Network) Busy() time.Duration { return n.busy }

// Utilization returns the fraction of the elapsed window the wire was busy.
func (n *Network) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(n.busy) / float64(elapsed)
}
