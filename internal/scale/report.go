package scale

import (
	"fmt"
	"time"

	"spritefs/internal/metrics"
	"spritefs/internal/stats"
)

// ShardSummary is one segment's row of the scale report.
type ShardSummary struct {
	Shard     int
	Site      int
	Clients   int
	FileOpens int64
	Recalls   int64
	CWSEvents int64
	NetBytes  int64
	// CacheHit is the segment's client read hit ratio, computed directly
	// from the client caches (not the metric registry) so it is available
	// in LeanMetrics runs too.
	CacheHit float64
	// NetUtil is the segment wire's busy fraction over the horizon — the
	// paper's "four percent of an Ethernet" check, per segment.
	NetUtil float64
	// ServerUtil is the server group's disk busy fraction over the
	// horizon, the closest thing the model has to server CPU saturation.
	ServerUtil float64
	Remote     RemoteStats
}

// Report is the deterministic summary of a finished run: identical bytes
// for equal seeds whatever the executor, worker count or GOMAXPROCS.
type Report struct {
	Shards   int
	Sites    int
	Clients  int
	Horizon  time.Duration
	PerShard []ShardSummary

	TotalOpens    int64
	TotalRecalls  int64
	TotalCWS      int64
	TotalNetBytes int64
	// CacheHit is the community-wide client read hit ratio.
	CacheHit float64
	// OpensPerSec is aggregate open throughput over the horizon — the
	// scale study's headline throughput number.
	OpensPerSec float64
	// RecallsPerHour is the aggregate dirty-data recall rate, the paper
	// mechanism that grows superlinearly when one community is not
	// sharded.
	RecallsPerHour float64

	RouterUtil float64
	// WAN totals: traffic that crossed the inter-site trunk (all zero in
	// a flat topology).
	WANMsgs      int64
	WANBytes     int64
	WANUtil      float64
	CrossSiteOps int64
	Exec         ExecStats
}

// Report summarizes the finished run from the engine-wide registry and
// the component state the registry does not carry in lean runs.
func (e *Engine) Report() Report {
	if e.horizon <= 0 {
		panic("scale: Report before Run")
	}
	hours := e.horizon.Hours()
	secs := e.horizon.Seconds()
	r := Report{
		Shards:  len(e.Shards),
		Sites:   e.topo.Sites,
		Clients: e.Clients(),
		Horizon: e.horizon,
		Exec:    e.exec,
	}
	var reads, misses int64
	for i, sh := range e.Shards {
		sel := metrics.L("shard", fmt.Sprintf("%d", i))
		s := ShardSummary{
			Shard:     i,
			Site:      e.topo.SiteOf(i),
			Clients:   len(sh.C.Clients),
			FileOpens: e.Reg.SumInt("spritefs_server_file_opens_total", sel),
			Recalls:   e.Reg.SumInt("spritefs_server_recalls_total", sel),
			CWSEvents: e.Reg.SumInt("spritefs_server_cws_events_total", sel),
			NetBytes:  e.Reg.SumInt("spritefs_net_bytes_total", sel),
			Remote:    sh.remote,
		}
		var sr, sm int64
		for _, cl := range sh.C.Clients {
			st := cl.Cache.Stats()
			sr += st.All.ReadOps
			sm += st.All.ReadMisses
		}
		if sr > 0 {
			s.CacheHit = 1 - float64(sm)/float64(sr)
		}
		reads += sr
		misses += sm
		s.NetUtil = sh.C.Net.Busy().Seconds() / secs
		var diskBusy time.Duration
		for _, srv := range sh.C.Servers {
			if srv.Store != nil {
				diskBusy += srv.Store.Stats().DiskBusy
			}
		}
		s.ServerUtil = diskBusy.Seconds() / secs / float64(len(sh.C.Servers))
		r.PerShard = append(r.PerShard, s)

		r.TotalOpens += s.FileOpens
		r.TotalRecalls += s.Recalls
		r.TotalCWS += s.CWSEvents
		r.TotalNetBytes += s.NetBytes
		r.CrossSiteOps += sh.remote.CrossSiteOps
	}
	if reads > 0 {
		r.CacheHit = 1 - float64(misses)/float64(reads)
	}
	r.OpensPerSec = float64(r.TotalOpens) / secs
	r.RecallsPerHour = float64(r.TotalRecalls) / hours
	r.RouterUtil = e.Router.Busy().Seconds() / secs
	wm, wb, wbusy := e.Router.TierTraffic(true)
	r.WANMsgs = wm
	r.WANBytes = wb
	r.WANUtil = wbusy.Seconds() / secs
	return r
}

// Table renders the report one row per shard plus a totals row.
func (r *Report) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Sharded cluster: %d clients over %d segments in %d sites, %v",
			r.Clients, r.Shards, r.Sites, r.Horizon),
		"shard", "site", "clients", "opens", "recalls", "cws", "hit%", "netMB", "net%", "disk%",
		"remote", "xsite", "rlat-ms")
	for _, s := range r.PerShard {
		var latMS float64
		if s.Remote.Latency.N() > 0 {
			latMS = s.Remote.Latency.Mean() / 1e6
		}
		t.AddRow(
			fmt.Sprintf("%d", s.Shard),
			fmt.Sprintf("%d", s.Site),
			fmt.Sprintf("%d", s.Clients),
			fmt.Sprintf("%d", s.FileOpens),
			fmt.Sprintf("%d", s.Recalls),
			fmt.Sprintf("%d", s.CWSEvents),
			fmt.Sprintf("%.1f", s.CacheHit*100),
			fmt.Sprintf("%.1f", float64(s.NetBytes)/(1<<20)),
			fmt.Sprintf("%.1f", s.NetUtil*100),
			fmt.Sprintf("%.1f", s.ServerUtil*100),
			fmt.Sprintf("%d", s.Remote.OpsIssued),
			fmt.Sprintf("%d", s.Remote.CrossSiteOps),
			fmt.Sprintf("%.2f", latMS))
	}
	var remoteOps, latN int64
	var latSum float64
	for _, s := range r.PerShard {
		remoteOps += s.Remote.OpsIssued
		latN += s.Remote.Latency.N()
		latSum += float64(s.Remote.Latency.N()) * s.Remote.Latency.Mean()
	}
	var latMS float64
	if latN > 0 {
		latMS = latSum / float64(latN) / 1e6
	}
	t.AddRow("all", "",
		fmt.Sprintf("%d", r.Clients),
		fmt.Sprintf("%d", r.TotalOpens),
		fmt.Sprintf("%d", r.TotalRecalls),
		fmt.Sprintf("%d", r.TotalCWS),
		fmt.Sprintf("%.1f", r.CacheHit*100),
		fmt.Sprintf("%.1f", float64(r.TotalNetBytes)/(1<<20)),
		"", "",
		fmt.Sprintf("%d", remoteOps),
		fmt.Sprintf("%d", r.CrossSiteOps),
		fmt.Sprintf("%.2f", latMS))
	return t
}

// ExecTable renders the executor/router bookkeeping.
func (r *Report) ExecTable() *stats.Table {
	t := stats.NewTable("Channel-clock executor", "counter", "value")
	t.AddRow("rounds", fmt.Sprintf("%d", r.Exec.Rounds))
	t.AddRow("messages routed", fmt.Sprintf("%d", r.Exec.Routed))
	t.AddRow("backbone bytes", fmt.Sprintf("%d", r.Exec.RoutedBytes))
	t.AddRow("null advances", fmt.Sprintf("%d", r.Exec.NullAdvances))
	t.AddRow("stall rescues", fmt.Sprintf("%d", r.Exec.Rescues))
	t.AddRow("undelivered at end", fmt.Sprintf("%d", r.Exec.Undelivered))
	t.AddRow("router utilization %", fmt.Sprintf("%.2f", r.RouterUtil*100))
	t.AddRow("wan messages", fmt.Sprintf("%d", r.WANMsgs))
	t.AddRow("wan bytes", fmt.Sprintf("%d", r.WANBytes))
	t.AddRow("wan utilization %", fmt.Sprintf("%.2f", r.WANUtil*100))
	return t
}
