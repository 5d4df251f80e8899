package cluster

import (
	"math"
	"strconv"
	"time"

	"spritefs/internal/client"
	"spritefs/internal/fscache"
	"spritefs/internal/metrics"
	"spritefs/internal/netsim"
	"spritefs/internal/stats"
)

// This file computes the Section 5 tables from kernel counters, mirroring
// the paper's post-processing of the two-week counter files. The
// computation lives on Metrics — a counter-bearing view over a set of
// clients, the registry and its sampled series — so that whatever drives
// a Cluster (the workload engine, the trace-replay engine in
// internal/replay) gets reports of identical shape.

// Metrics is the counter-bearing view of an experiment: whatever drove the
// clients/servers/network (user community or trace replay), the Section 5
// tables are computed the same way from the same counters. A Cluster
// embeds it, so its report methods are the cluster's.
type Metrics struct {
	Clients []*client.Client
	// Reg is the central metric registry the components registered into at
	// construction time. Sum-shaped tables (5, 7, 10, staleness, storage,
	// recovery) are projections of it.
	Reg *metrics.Registry
	// MetricSampler holds the registry's time series, sampled every
	// Config.SamplePeriod; nil when the period is zero. Table 4 is a
	// projection of it.
	MetricSampler *metrics.Sampler
}

// Report aggregates every counter-derived table of the Section 5 study in
// one value, so live runs and trace replays can be compared field by field.
type Report struct {
	Table4   Table4
	Table5   Table5
	Table6   Table6
	Table7   Table7
	Table8   Table8
	Table9   Table9
	Table10  Table10
	Storage  ServerStorage
	Stale    LiveStale
	Recovery Recovery
}

// Report computes all counter tables at once.
func (m *Metrics) Report() Report {
	return Report{
		Table4:   m.Table4Report(),
		Table5:   m.Table5Report(),
		Table6:   m.Table6Report(),
		Table7:   m.Table7Report(),
		Table8:   m.Table8Report(),
		Table9:   m.Table9Report(),
		Table10:  m.Table10Report(),
		Storage:  m.ServerStorageReport(),
		Stale:    m.LiveStaleReport(),
		Recovery: m.RecoveryReport(),
	}
}

// Table4 is the client cache size study.
type Table4 struct {
	AvgSizeKB float64 // average cache size over active machine-intervals
	SDSizeKB  float64 // standard deviation over 15-minute intervals
	MaxSizeKB float64
	// Cache size change (max-min within an interval), 15- and 60-minute.
	Change15MaxKB, Change15AvgKB, Change15SDKB float64
	Change60MaxKB, Change60AvgKB, Change60SDKB float64
	ActiveIntervals15                          int64
}

// Table4Families is DefaultConfig's MetricsMatch: the families Table4Report
// projects, and nothing else.
func Table4Families(name string) bool {
	return name == "spritefs_cache_size_bytes" || name == "spritefs_cache_read_ops_total" ||
		name == "spritefs_cache_write_ops_total"
}

// Table4Report projects the sampler's rows. Only intervals in which a
// machine was active are included, and the first interval after a
// client's cold start is screened out, as in the paper.
func (m *Metrics) Table4Report() Table4 {
	var t Table4
	sizes15, ch15 := m.intervalChanges(15 * time.Minute)
	_, ch60 := m.intervalChanges(60 * time.Minute)

	var sizeW, c15, c60 stats.Welford
	for _, s := range sizes15 {
		sizeW.Add(s / 1024)
	}
	for _, v := range ch15 {
		c15.Add(v / 1024)
	}
	for _, v := range ch60 {
		c60.Add(v / 1024)
	}
	t.AvgSizeKB = sizeW.Mean()
	t.SDSizeKB = sizeW.Stddev()
	t.MaxSizeKB = sizeW.Max()
	t.Change15MaxKB, t.Change15AvgKB, t.Change15SDKB = c15.Max(), c15.Mean(), c15.Stddev()
	t.Change60MaxKB, t.Change60AvgKB, t.Change60SDKB = c60.Max(), c60.Mean(), c60.Stddev()
	t.ActiveIntervals15 = sizeW.N()
	return t
}

// intervalChanges buckets the sampled rows into fixed windows per
// workstation, walking rows in time order and, in each, the workstations
// up (columns present, not NaN) in Clients order. It returns the mean size
// and size change of each window in which the scope="all" ops moved from
// the previous row (0 before the first), bar the first row's: the cold start.
func (m *Metrics) intervalChanges(width time.Duration) (sizes, changes []float64) {
	if m.MetricSampler == nil {
		return nil, nil
	}
	type workstation struct {
		size, ops []float64
		prev      float64
		up        bool
	}
	var ws []workstation
	var times []time.Duration
	for _, cl := range m.Clients {
		ls := metrics.Labels{metrics.L("client", strconv.Itoa(int(cl.ID()))), metrics.L("scope", "all")}
		size := m.MetricSampler.Get("spritefs_cache_size_bytes", ls[:1].String())
		reads := m.MetricSampler.Get("spritefs_cache_read_ops_total", ls.String())
		writes := m.MetricSampler.Get("spritefs_cache_write_ops_total", ls.String())
		if size.Values == nil || reads.Values == nil || writes.Values == nil {
			continue
		}
		for i, w := range writes.Values {
			reads.Values[i] += w
		}
		times = size.Times
		ws = append(ws, workstation{size: size.Values, ops: reads.Values})
	}
	type key struct {
		ws  int // index into ws: Clients order, ids unique
		win int64
	}
	type agg struct {
		min, max, sum float64
		n             int
		active, cold  bool
	}
	wins := make(map[key]*agg)
	var order []*agg // first-seen: map order would move the caller's float sums in the low bits
	for i, at := range times {
		for j := range ws {
			w := &ws[j]
			v, ops := w.size[i], w.ops[i]
			if math.IsNaN(v) || math.IsNaN(ops) {
				continue
			}
			k := key{j, int64(at / width)}
			a := wins[k]
			if a == nil {
				a = &agg{min: v, max: v, cold: !w.up}
				wins[k] = a
				order = append(order, a)
			}
			a.min, a.max = min(a.min, v), max(a.max, v)
			a.sum += v
			a.n++
			a.active = a.active || ops != w.prev
			w.prev, w.up = ops, true
		}
	}
	for _, a := range order {
		// A cold-start window begins at the minimum size and "almost
		// always grows immediately".
		if !a.active || a.cold {
			continue
		}
		sizes = append(sizes, a.sum/float64(a.n))
		changes = append(changes, a.max-a.min)
	}
	return sizes, changes
}

// Table5 is the raw traffic-source breakdown: percentages of all bytes
// presented by applications to the client operating systems, before any
// cache filtering.
type Table5 struct {
	FileReadPct            float64 // cacheable file reads
	FileWritePct           float64
	PagingCacheableReadPct float64 // code and initialized-data faults
	PagingBackingReadPct   float64
	PagingBackingWritePct  float64
	SharedReadPct          float64 // uncacheable write-shared pass-through
	SharedWritePct         float64
	DirReadPct             float64
	PagingPct              float64 // all paging classes combined
	UncacheablePct         float64
	TotalBytes             int64
}

// Table5Report sums the per-client application-level traffic, as a
// projection of the central registry: the client caches' spritefs_cache
// families (the server stores' internal caches live under a distinct
// prefix, so the sums cover exactly the clients), the per-class VM paging
// counters, and the write-sharing pass-through counters.
func (m *Metrics) Table5Report() Table5 {
	r := m.Registry()
	all := metrics.L("scope", "all")
	fileRead := r.SumInt("spritefs_cache_read_bytes_total", all) -
		r.SumInt("spritefs_cache_paging_read_bytes_total", all)
	fileWrite := r.SumInt("spritefs_cache_write_bytes_total", all)
	pagingCache := r.SumInt("spritefs_cache_paging_read_bytes_total", all)
	backIn := r.SumInt("spritefs_vm_paged_in_bytes_total", metrics.L("class", "heap")) +
		r.SumInt("spritefs_vm_paged_in_bytes_total", metrics.L("class", "stack"))
	backOut := r.SumInt("spritefs_vm_paged_out_bytes_total", metrics.L("class", "heap")) +
		r.SumInt("spritefs_vm_paged_out_bytes_total", metrics.L("class", "stack"))
	shR := r.SumInt("spritefs_client_shared_read_bytes_total")
	shW := r.SumInt("spritefs_client_shared_write_bytes_total")
	dirB := r.SumInt("spritefs_client_dir_read_bytes_total")
	total := fileRead + fileWrite + pagingCache + backIn + backOut + shR + shW + dirB
	var t Table5
	t.TotalBytes = total
	if total == 0 {
		return t
	}
	pct := func(n int64) float64 { return 100 * float64(n) / float64(total) }
	t.FileReadPct = pct(fileRead)
	t.FileWritePct = pct(fileWrite)
	t.PagingCacheableReadPct = pct(pagingCache)
	t.PagingBackingReadPct = pct(backIn)
	t.PagingBackingWritePct = pct(backOut)
	t.SharedReadPct = pct(shR)
	t.SharedWritePct = pct(shW)
	t.DirReadPct = pct(dirB)
	t.PagingPct = t.PagingCacheableReadPct + t.PagingBackingReadPct + t.PagingBackingWritePct
	t.UncacheablePct = t.PagingBackingReadPct + t.PagingBackingWritePct +
		t.SharedReadPct + t.SharedWritePct + t.DirReadPct
	return t
}

// Table6Col is one column of the cache-effectiveness table.
type Table6Col struct {
	ReadMissPct        float64 // cache read ops not satisfied in the cache
	ReadMissTrafficPct float64 // bytes fetched / bytes read by apps
	WritebackPct       float64 // bytes written back / bytes written
	WriteFetchPct      float64 // write ops needing a block fetch
	PagingReadMissPct  float64
	// Standard deviations of the per-machine values.
	SDReadMissPct, SDReadMissTrafficPct, SDWritebackPct float64
}

// Table6 is client cache effectiveness, for all traffic and for migrated
// processes only.
type Table6 struct {
	All      Table6Col
	Migrated Table6Col
	// BytesSavedByDeletePct: share of written bytes that died in the cache.
	BytesSavedByDeletePct float64
}

// Table6Report aggregates the cache counters across clients.
func (m *Metrics) Table6Report() Table6 {
	var all, mig fscache.OpStats
	var wbAll, savedAll, writtenAll int64
	var perMachineMiss, perMachineTraffic, perMachineWB stats.Welford
	for _, cl := range m.Clients {
		st := cl.Cache.Stats()
		addOps(&all, &st.All)
		addOps(&mig, &st.Migrated)
		wbAll += st.BytesWrittenBack
		savedAll += st.BytesSavedByDelete
		writtenAll += st.All.BytesWritten
		if st.All.ReadOps > 0 {
			perMachineMiss.Add(stats.Ratio(st.All.ReadMisses, st.All.ReadOps))
		}
		if st.All.BytesRead > 0 {
			perMachineTraffic.Add(stats.Ratio(st.All.BytesReadMissed, st.All.BytesRead))
		}
		if st.All.BytesWritten > 0 {
			perMachineWB.Add(stats.Ratio(st.BytesWrittenBack, st.All.BytesWritten))
		}
	}
	// File rows exclude paging, which gets its own row — as in the paper,
	// where "file read misses" and "paging read misses" are separate.
	col := func(o *fscache.OpStats) Table6Col {
		return Table6Col{
			ReadMissPct:        stats.Ratio(o.ReadMisses-o.PagingReadMiss, o.ReadOps-o.PagingReadOps),
			ReadMissTrafficPct: stats.Ratio(o.BytesReadMissed-o.PagingBytesMiss, o.BytesRead-o.PagingBytesRead),
			WriteFetchPct:      stats.Ratio(o.WriteFetches, o.WriteOps),
			PagingReadMissPct:  stats.Ratio(o.PagingReadMiss, o.PagingReadOps),
		}
	}
	t := Table6{All: col(&all), Migrated: col(&mig)}
	t.All.WritebackPct = stats.Ratio(wbAll, writtenAll)
	t.All.SDReadMissPct = perMachineMiss.Stddev()
	t.All.SDReadMissTrafficPct = perMachineTraffic.Stddev()
	t.All.SDWritebackPct = perMachineWB.Stddev()
	t.BytesSavedByDeletePct = stats.Ratio(savedAll, writtenAll)
	return t
}

func addOps(dst, src *fscache.OpStats) {
	dst.ReadOps += src.ReadOps
	dst.ReadMisses += src.ReadMisses
	dst.BytesRead += src.BytesRead
	dst.BytesReadMissed += src.BytesReadMissed
	dst.WriteOps += src.WriteOps
	dst.WriteFetches += src.WriteFetches
	dst.BytesWritten += src.BytesWritten
	dst.PagingReadOps += src.PagingReadOps
	dst.PagingReadMiss += src.PagingReadMiss
	dst.PagingBytesRead += src.PagingBytesRead
	dst.PagingBytesMiss += src.PagingBytesMiss
}

// Table7 is the client-to-server (network) traffic breakdown.
type Table7 struct {
	ClassPct       [netsim.NumClasses]float64
	PagingPct      float64
	SharedPct      float64
	ReadPct        float64 // server-to-client share of bytes
	WritePct       float64
	ReadWriteRatio float64 // non-paging read:write byte ratio
	TotalBytes     int64
}

// Table7Report reads the network accounting as a projection of the
// registry's per-class spritefs_net families.
func (m *Metrics) Table7Report() Table7 {
	r := m.Registry()
	var total netsim.Traffic
	for cl := netsim.Class(0); cl < netsim.NumClasses; cl++ {
		sel := metrics.L("class", cl.String())
		total.Bytes[cl] = r.SumInt("spritefs_net_bytes_total", sel)
		total.Ops[cl] = r.SumInt("spritefs_net_ops_total", sel)
	}
	var t Table7
	t.TotalBytes = total.TotalBytes()
	if t.TotalBytes == 0 {
		return t
	}
	for cl := netsim.Class(0); cl < netsim.NumClasses; cl++ {
		t.ClassPct[cl] = 100 * float64(total.Bytes[cl]) / float64(t.TotalBytes)
	}
	t.PagingPct = t.ClassPct[netsim.PagingRead] + t.ClassPct[netsim.PagingWrite]
	t.SharedPct = t.ClassPct[netsim.SharedRead] + t.ClassPct[netsim.SharedWrite]
	t.ReadPct = 100 * float64(total.ReadBytes()) / float64(t.TotalBytes)
	t.WritePct = 100 - t.ReadPct
	nonPagingRead := total.Bytes[netsim.FileRead] + total.Bytes[netsim.SharedRead] + total.Bytes[netsim.DirRead]
	nonPagingWrite := total.Bytes[netsim.FileWrite] + total.Bytes[netsim.SharedWrite]
	if nonPagingWrite > 0 {
		t.ReadWriteRatio = float64(nonPagingRead) / float64(nonPagingWrite)
	}
	return t
}

// Table8 is cache block replacement.
type Table8 struct {
	FilePct   float64 // replaced to hold another file block
	VMPct     float64 // page handed to the VM system
	AvgAgeMin float64 // minutes unreferenced at replacement
}

// Table8Report aggregates replacement counters.
func (m *Metrics) Table8Report() Table8 {
	var file, vmn int64
	var age stats.Welford
	for _, cl := range m.Clients {
		st := cl.Cache.Stats()
		file += st.ReplacedFile
		vmn += st.ReplacedVM
		age.Merge(st.ReplacementAge)
	}
	return Table8{
		FilePct:   stats.Ratio(file, file+vmn),
		VMPct:     stats.Ratio(vmn, file+vmn),
		AvgAgeMin: time.Duration(age.Mean()).Minutes(),
	}
}

// Table9 is dirty block cleaning: why blocks were written back and how
// long after their last write.
type Table9 struct {
	Pct    [fscache.NumCleanReasons]float64
	AgeSec [fscache.NumCleanReasons]float64
}

// Table9Report aggregates cleaning counters.
func (m *Metrics) Table9Report() Table9 {
	var counts [fscache.NumCleanReasons]int64
	var ages [fscache.NumCleanReasons]stats.Welford
	var total int64
	for _, cl := range m.Clients {
		st := cl.Cache.Stats()
		for r := fscache.CleanReason(0); r < fscache.NumCleanReasons; r++ {
			counts[r] += st.Cleaned[r]
			total += st.Cleaned[r]
			ages[r].Merge(st.CleanAge[r])
		}
	}
	var t Table9
	for r := fscache.CleanReason(0); r < fscache.NumCleanReasons; r++ {
		t.Pct[r] = stats.Ratio(counts[r], total)
		t.AgeSec[r] = time.Duration(ages[r].Mean()).Seconds()
	}
	return t
}

// ServerStorage summarizes the servers' cache and disk behavior — the
// instrumentation behind the paper's note that "the cache on the server
// would further reduce the ratio of read traffic seen by the server's
// disk" (Table 7's commentary).
type ServerStorage struct {
	ReadHitPct float64 // server-cache hit rate for client block fetches
	DiskReads  int64
	DiskWrites int64
	DiskBusy   time.Duration
}

// ServerStorageReport aggregates server storage counters as a projection
// of the registry's spritefs_server_store families.
func (m *Metrics) ServerStorageReport() ServerStorage {
	r := m.Registry()
	blocks := r.SumInt("spritefs_server_store_read_blocks_total")
	missBlocks := r.SumInt("spritefs_server_store_read_miss_blocks_total")
	return ServerStorage{
		ReadHitPct: stats.Ratio(blocks-missBlocks, blocks),
		DiskReads:  r.SumInt("spritefs_server_store_disk_reads_total"),
		DiskWrites: r.SumInt("spritefs_server_store_disk_writes_total"),
		DiskBusy:   r.SumSeconds("spritefs_server_store_disk_busy_seconds"),
	}
}

// LiveStale reports the stale reads actually served when the cluster runs
// under the weak polling consistency (client.ConsistencyPoll) — the live
// counterpart of the paper's Table 11 trace-driven estimate.
type LiveStale struct {
	StaleReads int64
	StaleBytes int64
	PollRPCs   int64
}

// LiveStaleReport sums the clients' stale-read counters from the registry.
func (m *Metrics) LiveStaleReport() LiveStale {
	r := m.Registry()
	return LiveStale{
		StaleReads: r.SumInt("spritefs_client_stale_reads_total"),
		StaleBytes: r.SumInt("spritefs_client_stale_bytes_total"),
		PollRPCs:   r.SumInt("spritefs_client_poll_rpcs_total"),
	}
}

// Recovery summarizes the fault-injection and crash-recovery study: what
// crashes destroyed (the paper's "at most 30 seconds of work" reliability
// claim, measured), the reopen storms restarted servers absorbed, and the
// network-level fault perturbations.
type Recovery struct {
	ServerCrashes    int64
	ClientCrashes    int64
	OpensLostInCrash int64 // open registrations discarded by server crashes
	// DirtyBytesLost counts un-synced bytes destroyed on both sides:
	// client delayed-write caches and server caches.
	DirtyBytesLost int64
	MaxDirtyAge    time.Duration // oldest lost dirty byte — bounded by the
	// writeback delay plus one cleaner period when the daemons are healthy.

	Recoveries      int64 // recovery protocol runs completed by clients
	RecoveryOpens   int64 // handle re-registrations served (reopen storm)
	RecoveryCWS     int64 // write-sharing re-detected during recovery
	ReplayedBytes   int64 // dirty bytes replayed to restarted servers
	RecoveryRetries int64 // backoff retries against down servers
	GaveUp          int64 // recovery attempts abandoned at the retry limit
	// MaxTimeToReconsistency is the worst crash-to-recovered interval.
	MaxTimeToReconsistency time.Duration

	// Network fault accounting (from the wire's hook counters).
	DroppedOps  int64
	Retransmits int64
	StalledOps  int64
	StallTime   time.Duration
}

// RecoveryReport aggregates the crash/recovery counters as a projection of
// the registry's client-recovery, server-crash and network-fault families.
func (m *Metrics) RecoveryReport() Recovery {
	r := m.Registry()
	maxAge := r.MaxSeconds("spritefs_client_max_lost_dirty_age_seconds")
	if v := r.MaxSeconds("spritefs_server_store_max_lost_dirty_age_seconds"); v > maxAge {
		maxAge = v
	}
	return Recovery{
		ServerCrashes:    r.SumInt("spritefs_server_crashes_total"),
		ClientCrashes:    r.SumInt("spritefs_client_crashes_total"),
		OpensLostInCrash: r.SumInt("spritefs_server_opens_lost_in_crash_total"),
		DirtyBytesLost: r.SumInt("spritefs_client_lost_dirty_bytes_total") +
			r.SumInt("spritefs_server_store_lost_dirty_bytes_total"),
		MaxDirtyAge: maxAge,

		Recoveries:             r.SumInt("spritefs_client_recoveries_total"),
		RecoveryOpens:          r.SumInt("spritefs_server_recovery_opens_total"),
		RecoveryCWS:            r.SumInt("spritefs_server_recovery_cws_total"),
		ReplayedBytes:          r.SumInt("spritefs_client_replayed_bytes_total"),
		RecoveryRetries:        r.SumInt("spritefs_client_recovery_retries_total"),
		GaveUp:                 r.SumInt("spritefs_client_recovery_gave_up_total"),
		MaxTimeToReconsistency: r.MaxSeconds("spritefs_server_max_recovery_seconds"),

		DroppedOps:  r.SumInt("spritefs_net_fault_dropped_ops_total"),
		Retransmits: r.SumInt("spritefs_net_fault_retransmits_total"),
		StalledOps:  r.SumInt("spritefs_net_fault_stalled_ops_total"),
		StallTime:   r.SumSeconds("spritefs_net_fault_stall_seconds"),
	}
}

// Table10 is consistency action frequency, from the servers' counters.
type Table10 struct {
	CWSPct    float64
	RecallPct float64
	FileOpens int64
}

// Table10Report sums the servers' consistency counters from the registry.
func (m *Metrics) Table10Report() Table10 {
	r := m.Registry()
	opens := r.SumInt("spritefs_server_file_opens_total")
	cws := r.SumInt("spritefs_server_cws_events_total")
	recalls := r.SumInt("spritefs_server_recalls_total")
	return Table10{
		CWSPct:    stats.Ratio(cws, opens),
		RecallPct: stats.Ratio(recalls, opens),
		FileOpens: opens,
	}
}
