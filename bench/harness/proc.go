package harness

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// MaxProcs is the GOMAXPROCS ceiling every workload runs under, so numbers
// from a large host stay comparable with the 2-CPU reference host.
const MaxProcs = 4

// SetProcs applies GOMAXPROCS = min(nproc, MaxProcs) and returns it.
func SetProcs() int {
	n := runtime.NumCPU()
	if n > MaxProcs {
		n = MaxProcs
	}
	runtime.GOMAXPROCS(n)
	return n
}

// CPUTime is the process's user+system CPU so far (getrusage).
func CPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Prefault touches mb megabytes and leaves them, resident, in the Go heap's
// free pool for the measured passes to reuse. The reference host is a
// microVM whose hypervisor takes free guest pages away within seconds ("free
// page reporting") and backs a page again only when it is touched, at up to
// fifteen times the cost of an ordinary page fault (6 ms against 0.4 ms per
// megabyte): a pass that grows its heap by 2 GB from the kernel spent between
// 2.6 and 8.6 s in those faults, the same code, the same seed. That is the
// host's laziness, not the program's cost, so it is paid here, once, and the
// process keeps the pages: run.sh sets GODEBUG=madvdontneed=0, under which the
// runtime's scavenger marks free pages MADV_FREE, which the kernel leaves in
// place while memory is plentiful, where the default hands them back at once.
//
// What a pass costs in memory is therefore read from the runtime
// (MemSampler), not from the resident set, which holds these pages throughout.
func Prefault(mb int) {
	b := make([]byte, mb<<20)
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	runtime.KeepAlive(b)
	b = nil
	runtime.GC()
}

// MemSampler records the peak of the memory the Go runtime has in use —
// everything it has mapped less what it has released and less the free pages
// it holds on to — by reading the runtime's metrics every few milliseconds.
// It is the resident set the process would need on a host where holding on
// to free pages served no purpose.
type MemSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func memInUse() uint64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64() - s[2].Value.Uint64()
}

// StartMemSampler starts sampling; Stop ends it.
func StartMemSampler() *MemSampler {
	m := &MemSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: memInUse()}
	go func() {
		defer close(m.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.peak = max(m.peak, memInUse())
			}
		}
	}()
	return m
}

// Stop ends the sampling and returns the peak, in MB.
func (m *MemSampler) Stop() float64 {
	close(m.stop)
	<-m.done
	return float64(max(m.peak, memInUse())) / (1 << 20)
}

// LiveHeapBytes forces a collection and returns the bytes still reachable.
func LiveHeapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// RuntimeCounters is a cumulative reading of the Go runtime's own costs;
// Sub gives the cost of the interval between two readings.
type RuntimeCounters struct {
	Mallocs  uint64
	GCPause  time.Duration
	GCCPU    float64 // seconds of CPU the collector used
	TotalCPU float64 // seconds of CPU available to the process (GOMAXPROCS-seconds)
}

// ReadRuntime samples the runtime counters.
func ReadRuntime() RuntimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	rc := RuntimeCounters{Mallocs: ms.Mallocs, GCPause: time.Duration(ms.PauseTotalNs)}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		rc.GCCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		rc.TotalCPU = s[1].Value.Float64()
	}
	return rc
}

// Sub returns the counters accumulated since prev.
func (rc RuntimeCounters) Sub(prev RuntimeCounters) RuntimeCounters {
	return RuntimeCounters{
		Mallocs:  rc.Mallocs - prev.Mallocs,
		GCPause:  rc.GCPause - prev.GCPause,
		GCCPU:    rc.GCCPU - prev.GCCPU,
		TotalCPU: rc.TotalCPU - prev.TotalCPU,
	}
}

// Add returns the sum of two intervals' counters.
func (rc RuntimeCounters) Add(o RuntimeCounters) RuntimeCounters {
	return RuntimeCounters{
		Mallocs:  rc.Mallocs + o.Mallocs,
		GCPause:  rc.GCPause + o.GCPause,
		GCCPU:    rc.GCCPU + o.GCCPU,
		TotalCPU: rc.TotalCPU + o.TotalCPU,
	}
}
