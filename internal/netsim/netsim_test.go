package netsim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultConfigBlockFetchLatency(t *testing.T) {
	// The paper: fetching a 4 KB page from a server's cache takes 6-7 ms.
	n := New(DefaultConfig())
	d := n.RPC(1, FileRead, 4096)
	if d < 6*time.Millisecond || d > 7*time.Millisecond {
		t.Errorf("4KB fetch = %v, want 6-7ms", d)
	}
}

func TestRPCAccounting(t *testing.T) {
	n := New(DefaultConfig())
	n.RPC(1, FileRead, 4096)
	n.RPC(1, FileWrite, 4096)
	n.RPC(2, FileRead, 1024)
	n.RPC(2, Control, 0)

	total := n.Total()
	if total.Bytes[FileRead] != 5120 {
		t.Errorf("FileRead bytes = %d", total.Bytes[FileRead])
	}
	if total.Ops[Control] != 1 {
		t.Errorf("Control ops = %d", total.Ops[Control])
	}
	if total.TotalBytes() != 9216 {
		t.Errorf("TotalBytes = %d", total.TotalBytes())
	}
	if total.Ops[FileRead] != 2 || total.Ops[FileWrite] != 1 {
		t.Errorf("ops = %v", total.Ops)
	}
	if total.ReadBytes() != 5120 || total.Bytes[FileWrite] != 4096 {
		t.Errorf("read/write split = %d/%d", total.ReadBytes(), total.Bytes[FileWrite])
	}
}

func TestClassProperties(t *testing.T) {
	reads := []Class{FileRead, PagingRead, SharedRead, DirRead}
	writes := []Class{FileWrite, PagingWrite, SharedWrite, Control}
	for _, c := range reads {
		if !c.IsRead() {
			t.Errorf("%v should be a read class", c)
		}
	}
	for _, c := range writes {
		if c.IsRead() {
			t.Errorf("%v should not be a read class", c)
		}
	}
	if FileRead.String() != "file-read" {
		t.Errorf("name = %q", FileRead.String())
	}
	if Class(99).String() != "class(99)" {
		t.Errorf("unknown class name = %q", Class(99).String())
	}
}

func TestUtilization(t *testing.T) {
	n := New(Config{BandwidthBps: 1e6, BaseLatency: 0})
	n.RPC(1, FileRead, 500_000) // 0.5 s of wire time
	if got := n.Utilization(time.Second); got < 0.49 || got > 0.51 {
		t.Errorf("utilization = %g, want ~0.5", got)
	}
	if got := n.Utilization(0); got != 0 {
		t.Errorf("utilization over empty window = %g", got)
	}
	if n.Busy() != 500*time.Millisecond {
		t.Errorf("Busy = %v", n.Busy())
	}
}

func TestRPCPanics(t *testing.T) {
	n := New(DefaultConfig())
	for _, fn := range []func(){
		func() { n.RPC(1, FileRead, -1) },
		func() { n.RPC(1, NumClasses, 1) },
		func() { New(Config{BandwidthBps: 0}) },
		func() { New(Config{BandwidthBps: 1, BaseLatency: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: latency is monotone in payload and total bytes are conserved.
func TestRPCMonotoneAndConserving(t *testing.T) {
	f := func(sizes []uint16) bool {
		n := New(DefaultConfig())
		var sum int64
		var prev time.Duration
		prevSize := int64(-1)
		for _, s := range sizes {
			p := int64(s)
			d := n.RPC(1, FileRead, p)
			if prevSize >= 0 && p >= prevSize && d < prev && p > prevSize {
				return false
			}
			_ = prev
			prev, prevSize = d, p
			sum += p
		}
		return n.Total().Bytes[FileRead] == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRPCZeroAllocSteadyState gates the hot accounting path: one
// send/receive round trip (a read RPC out, a write RPC back) plus a
// gateway-forwarded control RPC must not allocate. `make allocscheck`
// runs this.
func TestRPCZeroAllocSteadyState(t *testing.T) {
	n := New(DefaultConfig())
	allocs := testing.AllocsPerRun(1000, func() {
		n.RPCTo(0, 3, FileRead, 4096)
		n.RPCTo(0, 3, FileWrite, 4096)
		n.RPCTo(0, -1, Control, 64)
	})
	if allocs != 0 {
		t.Fatalf("round trip allocated %.1f/op in steady state, want 0", allocs)
	}
}
