package core

import (
	"fmt"
	"strings"
	"time"

	"spritefs/internal/client"
	"spritefs/internal/cluster"
	"spritefs/internal/faults"
	"spritefs/internal/netsim"
	"spritefs/internal/stats"
	"spritefs/internal/vm"
	"spritefs/internal/workload"
)

// The claims table: the paper's arguments from what it measured, as data.
// A claim runs the counter study's community once per point of one config
// axis, reads catalog cells at every point, and judges them with one rule.
// Its verdict is printed as it comes out: a claim that fails on this model
// says so.

// point is one run of a claim's study: a label and what it changes in the
// counter study's config (cfg.Params holds the workload).
type point struct {
	label string
	set   func(*cluster.Config)
}

// claim is one of the paper's sentences and the check that judges it.
// holds reads v[point][cell] and returns the verdict with the values and
// thresholds it compared. crashes runs every point under
// defaultFaultSchedule for the claim's horizon.
type claim struct {
	id, section, sentence string
	points                []point
	crashes               bool
	cells                 []string
	holds                 func(v [][]float64) (bool, string)
}

func unchanged(*cluster.Config) {}

func cacheMB(mb int) point {
	return point{fmt.Sprintf("%d MB", mb), func(cfg *cluster.Config) { cfg.FixedCachePages = mb << 20 / vm.PageSize }}
}

func prefetch(n int) point {
	return point{fmt.Sprintf("prefetch %d", n), func(cfg *cluster.Config) { cfg.PrefetchBlocks = n }}
}

// delays is one point per client writeback delay.
func delays(ds ...time.Duration) []point {
	var pts []point
	for _, d := range ds {
		pts = append(pts, point{d.String(), func(cfg *cluster.Config) { cfg.WritebackDelay = d }})
	}
	return pts
}

// crashWindows are s6.crash_loss's client writeback delays: 5 s, Sprite's
// 30 s and 2 m. A server delays its own writes 30 s and its cleaner runs
// every 5 s, so a crash loses nothing dirtied longer ago than
// max(window, 30 s) + 5 s.
var crashWindows = []time.Duration{5 * time.Second, 30 * time.Second, 2 * time.Minute}

// defaultFaultSchedule crashes one server per simulated hour, round-robin,
// each outage 30 seconds — enough crashes to measure, spaced so every
// recovery completes before the next fault.
func defaultFaultSchedule(hours float64, nServers int) faults.Schedule {
	var s faults.Schedule
	for h := 0; float64(h) < hours; h++ {
		s.Events = append(s.Events, faults.Event{
			At:       time.Duration(h)*time.Hour + 30*time.Minute,
			Kind:     faults.ServerCrash,
			Target:   h % nServers,
			Duration: 30 * time.Second,
		})
	}
	return s
}

// polling is a live consistency scheme on a community that shares more
// than the default one, so that stale reads have something to hit.
func polling(label string, mode client.ConsistencyMode, every time.Duration) point {
	return point{label, func(cfg *cluster.Config) {
		cfg.Params.AwaySessionProb = 0.3
		cfg.Params.SharedReadSoonP = 0.9
		cfg.Consistency, cfg.PollInterval = mode, every
	}}
}

func reuseBias(bias float64) point {
	return point{fmt.Sprintf("reuse bias %g", bias), func(cfg *cluster.Config) {
		cfg.Params.MigrationUserFrac = 1
		cfg.Params.MigrationReuseBias = bias
	}}
}

var missCells = []string{"t6.file_read.miss_pct", "t6.read_traffic.miss_pct"}

var claims = []claim{
	{
		id: "s5.3.local_disks", section: "§5.3",
		sentence: "Backing files on local disks would take only a minority of the traffic off the servers, and a 4 KB fetch over the network (6-7 ms) beats a local disk (20-30 ms).",
		points:   []point{{"default", unchanged}},
		cells:    []string{"t5.paging.backing_read.pct", "t5.paging.backing_write.pct", "t5.total_bytes", "t7.total_bytes"},
		holds: func(v [][]float64) (bool, string) {
			share := (v[0][0] + v[0][1]) * v[0][2] / v[0][3]
			fetch := netsim.New(netsim.DefaultConfig()).RPC(0, netsim.PagingRead, 4096)
			return share < 50 && fetch < 20*time.Millisecond,
				fmt.Sprintf("backing-file paging %.1f%% of network bytes (must be < 50); 4 KB paging fetch %.2f ms (must be < 20)",
					share, float64(fetch)/float64(time.Millisecond))
		},
	},
	{
		id: "s5.2.cache_floor", section: "§5.2",
		sentence: "The BSD study predicted about 10% read misses for a 4 MB cache; Sprite's caches miss about 40%, because files have grown larger.",
		points:   []point{cacheMB(1), cacheMB(2), cacheMB(4), cacheMB(8), cacheMB(16)},
		cells:    missCells,
		holds: func(v [][]float64) (bool, string) {
			rise := v[1][0] - v[0][0]
			for i := 2; i < len(v); i++ {
				rise = max(rise, v[i][0]-v[i-1][0])
			}
			first, last := v[0][0], v[len(v)-1][0]
			return rise <= 2 && last < first && v[2][0] > 20,
				fmt.Sprintf("largest rise from one size to the next %.1f points (must be <= 2); 1 MB -> 16 MB %.1f -> %.1f (must fall); 4 MB %.1f (must be > 20)",
					rise, first, last, v[2][0])
		},
	},
	{
		id: "s5.2.prefetch", section: "§5.2",
		sentence: "Prefetching could reduce latencies, but it would not reduce the read-related server traffic.",
		points:   []point{prefetch(0), prefetch(2), prefetch(8)},
		cells:    missCells,
		holds: func(v [][]float64) (bool, string) {
			off, on := v[0], v[len(v)-1]
			return on[0] < off[0] && on[1] >= 0.9*off[1],
				fmt.Sprintf("prefetch 0 -> 8: misses %.1f -> %.1f (must fall); miss traffic %.1f -> %.1f (must stay >= 0.9x)", off[0], on[0], off[1], on[1])
		},
	},
	{
		id: "s6.longer_delay", section: "§6",
		sentence: "Once reads are absorbed, longer writeback intervals become attractive: more new bytes die in the cache before they reach a server.",
		points:   delays(5*time.Second, 30*time.Second, 2*time.Minute, 10*time.Minute),
		cells:    []string{"t6.writeback.pct", "t6.delete_saved.pct"},
		holds: func(v [][]float64) (bool, string) {
			short, long := v[0], v[len(v)-1]
			return long[0] < short[0] && long[1] > short[1],
				fmt.Sprintf("5s -> 10m: writeback %.1f -> %.1f (must fall); saved by delete %.1f -> %.1f (must rise)", short[0], long[0], short[1], long[1])
		},
	},
	{
		id: "s5.5.live_polling", section: "§5.5",
		sentence: "Sprite's consistency serves no stale data; NFS-style polling does, and a shorter window serves less.",
		points: []point{
			polling("sprite", client.ConsistencySprite, 0),
			polling("poll 60s", client.ConsistencyPoll, 60*time.Second),
			polling("poll 3s", client.ConsistencyPoll, 3*time.Second),
		},
		cells: []string{"stale.reads", "stale.bytes", "stale.poll_rpcs"},
		holds: func(v [][]float64) (bool, string) {
			return v[0][0] == 0 && v[1][0] > v[2][0],
				fmt.Sprintf("sprite %.0f stale reads (must be 0); poll 60s -> 3s %.0f -> %.0f (must fall)", v[0][0], v[1][0], v[2][0])
		},
	},
	{
		id: "s5.5.polling_cliff", section: "§5.5, Table 11",
		sentence: "A 60-second polling window yields tens of stale-data errors per hour; 3 seconds cuts them by a large factor but cannot eliminate them.",
		points:   []point{{"default", unchanged}},
		cells:    []string{"t11.60s.errors_per_hour", "t11.3s.errors_per_hour"},
		holds: func(v [][]float64) (bool, string) {
			e60, e3 := v[0][0], v[0][1]
			return e60 > 10*e3 && e3 > 0,
				fmt.Sprintf("60s %.2f errors/hour is %.1fx 3s %.2f (must be > 10x, and 3s > 0)", e60, e60/e3, e3)
		},
	},
	{
		id: "t6.migration_reuse", section: "§5.2, Table 6",
		sentence: "Migrated processes miss less than the average, because pmake reuses the idle hosts it used before.",
		points:   []point{reuseBias(0), reuseBias(0.7)},
		cells:    []string{"t6.migrated.file_read.miss_pct"},
		holds: func(v [][]float64) (bool, string) {
			return v[1][0] < v[0][0], fmt.Sprintf("reuse bias 0 -> 0.7: migrated misses %.1f -> %.1f (must fall)", v[0][0], v[1][0])
		},
	},
	{
		id: "s4.growth_x20", section: "§4, Table 2",
		sentence: "File throughput per active user grew by a factor of about 20 since the 1985 BSD study (0.40 -> 8.0 KB/s over 10-minute intervals).",
		points: []point{
			{"1991", unchanged},
			{"1985", func(cfg *cluster.Config) { cfg.Params = workload.BSD1985(cfg.Params.Seed) }},
		},
		cells: []string{"t2.10m.avg_kbs", "t2.10s.avg_kbs"},
		holds: func(v [][]float64) (bool, string) {
			return v[0][0] >= 10*v[1][0],
				fmt.Sprintf("1991 %.2f KB/s is %.1fx 1985 %.2f KB/s at 10 minutes (must be >= 10x)", v[0][0], v[0][0]/v[1][0], v[1][0])
		},
	},
	{
		id: "s6.crash_loss", section: "§6",
		sentence: "Users can lose at most 30 seconds of work in a crash: only data dirtied within the delayed-write window is lost, and a shorter window costs writeback traffic.",
		points:   delays(crashWindows...),
		crashes:  true,
		cells:    []string{"recovery.server_crashes", "recovery.dirty_bytes_lost", "recovery.max_dirty_age_s", "recovery.replayed_bytes", "t6.writeback.pct"},
		holds: func(v [][]float64) (bool, string) {
			ok := true
			var crashes, ages, bounds []string
			for i, w := range crashWindows {
				bound := max(w, 30*time.Second).Seconds() + 5
				ok = ok && v[i][0] >= 1 && v[i][2] <= bound
				crashes = append(crashes, fmt.Sprintf("%.0f", v[i][0]))
				ages = append(ages, fmt.Sprintf("%.1f", v[i][2]))
				bounds = append(bounds, fmt.Sprintf("%.0f", bound))
			}
			first, last := v[0][4], v[len(v)-1][4]
			return ok && last < first,
				fmt.Sprintf("crashes %s (each must be >= 1); max lost age %s s (must be <= %s); writeback 5s -> 2m %.1f -> %.1f (must fall)",
					strings.Join(crashes, " / "), strings.Join(ages, " / "), strings.Join(bounds, " / "), first, last)
		},
	},
	{
		id: "s4.bursty", section: "§4, Table 2",
		sentence: "User activity is bursty: averaged over 10-second intervals an active user moves several times what the 10-minute average shows (47 vs 8.0 KB/s).",
		points:   []point{{"default", unchanged}},
		cells:    []string{"t2.10m.avg_kbs", "t2.10s.avg_kbs", "t2.10m.peak_user_kbs", "t2.10s.peak_user_kbs"},
		// The peaks are printed, not judged: the 24 h trace study's 10 s
		// peak is 9.8x its 10 min one against the paper's 21.6x.
		holds: func(v [][]float64) (bool, string) {
			long, short := v[0][0], v[0][1]
			return short >= 3*long,
				fmt.Sprintf("10s %.2f KB/s per active user is %.1fx 10m %.2f KB/s (must be >= 3x)", short, short/long, long)
		},
	},
}

// checkedClaim is one claim run: its cells' values at each point, and the
// verdict.
type checkedClaim struct {
	*claim
	values [][]float64
	ok     bool
	note   string
}

// ClaimsResult is the claims table checked at one horizon, scale and seed.
type ClaimsResult struct {
	Hours, Scale float64
	Seed         int64
	checked      []checkedClaim
}

// RunClaims checks every claim: each point runs the counter study's
// community (CounterParams(seed), changed by the point, then shrunk to
// scale) for hours of simulated time. hours <= 0 is 24, scale <= 0 is 1
// and seed 0 is the counter study's default.
func RunClaims(hours, scale float64, seed int64) (*ClaimsResult, error) {
	if hours <= 0 {
		hours = 24
	}
	if scale <= 0 {
		scale = 1
	}
	if seed == 0 {
		seed = defaultCounterSeed
	}
	r := &ClaimsResult{Hours: hours, Scale: scale, Seed: seed}
	for i := range claims {
		c, err := check(&claims[i], hours, scale, seed)
		if err != nil {
			return nil, err
		}
		r.checked = append(r.checked, c)
	}
	return r, nil
}

// check runs c's study. A point traces its cluster, and analyzes the trace
// as the run goes, only when one of c's cells reads a trace.
func check(c *claim, hours, scale float64, seed int64) (checkedClaim, error) {
	traced := false
	for _, id := range c.cells {
		traced = traced || catalog[id].trace != nil
	}
	out := checkedClaim{claim: c, values: make([][]float64, len(c.points))}
	for i, pt := range c.points {
		cfg := cluster.DefaultConfig(CounterParams(seed))
		pt.set(&cfg)
		if c.crashes {
			cfg.Faults = defaultFaultSchedule(hours, cfg.NumServers)
		}
		cfg.Params = scaleParams(cfg.Params, scale)
		var cr *CounterResult
		var tr *TraceResult
		if traced {
			var err error
			tr, err = streamTrace(cfg, 0, hours, func(cl *cluster.Cluster) { cr = runCounters(cl, hours/24) })
			if err != nil {
				return out, fmt.Errorf("claim %s, %s: %w", c.id, pt.label, err)
			}
		} else {
			cfg.CollectTrace = false
			cr = runCounters(cluster.New(cfg), hours/24)
		}
		for _, id := range c.cells {
			if cell := catalog[id]; cell.trace != nil {
				out.values[i] = append(out.values[i], cell.trace(tr))
			} else {
				out.values[i] = append(out.values[i], cell.counter(cr))
			}
		}
	}
	out.ok, out.note = c.holds(out.values)
	return out, nil
}

// ClaimTables renders each claim as its sentence, a table of its cells at
// every point, and its verdict.
func ClaimTables(r *ClaimsResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "The paper's claims: the counter study's community, %.1fh per point, scale %.2f, seed %d\n\n",
		r.Hours, r.Scale, r.Seed)
	for _, c := range r.checked {
		t := stats.NewTable(fmt.Sprintf("%s (%s): %s", c.id, c.section, c.sentence), append([]string{"point"}, c.cells...)...)
		for i, pt := range c.points {
			row := []string{pt.label}
			for j, id := range c.cells {
				row = append(row, fmt.Sprintf(catalog[id].format, c.values[i][j]))
			}
			t.AddRow(row...)
		}
		verdict := "fails"
		if c.ok {
			verdict = "holds"
		}
		fmt.Fprintf(&b, "%sverdict: %s: %s\n\n", t, verdict, c.note)
	}
	return b.String()
}
