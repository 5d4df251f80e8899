// Package workload generates the synthetic cluster workload that stands in
// for the 1991 Berkeley user community (the paper's original traces are
// irreproducible; see DESIGN.md). It models the paper's four user groups —
// operating-systems researchers, architecture researchers running I/O
// simulations, a VLSI/parallel-processing class, and miscellaneous staff —
// running the applications the paper names: interactive editing, program
// development with pmake (which migrates compilations to idle hosts),
// electronic mail, document production, and multi-megabyte simulation
// runs. Every distributional knob is centralized in Params so the eight
// trace configurations are explicit and auditable.
package workload

import "time"

// Group identifies a user community segment.
type Group uint8

// The paper's four user groups, roughly equal in size.
const (
	GroupOS Group = iota
	GroupArch
	GroupVLSI
	GroupMisc
	NumGroups
)

var groupNames = [NumGroups]string{"os", "arch", "vlsi", "misc"}

// String returns the group name.
func (g Group) String() string {
	if g < NumGroups {
		return groupNames[g]
	}
	return "group?"
}

// AppKind enumerates the application generators.
type AppKind uint8

// Applications, matching the paper's workload description.
const (
	AppEdit AppKind = iota
	AppCompile
	AppPmake
	AppMail
	AppDoc
	AppSim
	AppBigSim
	AppRandomDB
	AppDirList
	AppSharedLog
	// AppGrep is the utility burst: shell pipelines (grep, wc, find -exec)
	// that open dozens of small files in a second or two — the source of
	// the traces' enormous open counts at tiny byte volumes.
	AppGrep
	// AppStream is a media-streaming client (post-1991 workload): large
	// sequential ReadAt playback at a paced bitrate, with seek bursts
	// when the viewer scrubs. Disabled unless Params.MediaFiles > 0.
	AppStream
	// AppBuildFarm is a package-build farm (post-1991 workload): a worker
	// pool over a seeded dependency DAG, pmake-style, each package build
	// migrated to an idle host. Disabled unless Params.FarmPackages > 0.
	AppBuildFarm
	NumApps
)

var appNames = [NumApps]string{
	"edit", "compile", "pmake", "mail", "doc", "sim", "bigsim",
	"randomdb", "dirlist", "sharedlog", "grep", "stream", "buildfarm",
}

// String returns the application name.
func (a AppKind) String() string {
	if a < NumApps {
		return appNames[a]
	}
	return "app?"
}

// Params holds every knob of the synthetic workload. The defaults are
// calibrated so the Section 4 analyses reproduce the paper's shapes; the
// per-trace constructors below apply the deviations the paper describes
// for traces 3-4 (large-file class projects) and 7-8 (heavy simulation and
// sharing).
type Params struct {
	Seed int64

	// Population.
	NumClients      int // diskless workstations (paper: ~40)
	DailyUsers      int // day-to-day users (paper: ~30)
	OccasionalUsers int // occasional users (paper: ~40)

	// Session structure.
	SessionMedian            time.Duration // active session length (log-normal median)
	SessionSigma             float64
	GapMedian                time.Duration // idle gap between sessions
	GapSigma                 float64
	ThinkMean                time.Duration // think time between application runs
	OccasionalSessionsPerDay float64

	// Application mix per group, indexed [group][app].
	AppMix [NumGroups][NumApps]float64

	// File size distributions (bytes).
	SmallMedian float64 // editor/source files (log-normal median)
	SmallSigma  float64
	ObjMin      float64 // compiler outputs (bounded Pareto)
	ObjMax      float64
	ObjAlpha    float64
	BinMin      float64 // linked binaries / kernel images
	BinMax      float64
	BinAlpha    float64
	DocMedian   float64
	DocSigma    float64
	MailMedian  float64
	MailSigma   float64
	SimInputMB  float64 // big-sim input size (mean, MB)
	SimOutputMB float64

	// Processing rates: how fast applications consume/produce bytes
	// (models CPU-bound throughput; I/O latency adds on top).
	EditRate    float64 // bytes/second
	CompileRate float64
	SimRate     float64

	// Chunking of large transfers into separate kernel calls.
	ChunkBytes int64

	// pmake / migration.
	PmakeTargetsMin, PmakeTargetsMax int
	MigrationReuseBias               float64
	MigrationUserFrac                float64 // fraction of daily users who use pmake migration

	// Sharing.
	SharedLogOpenHold time.Duration // how long a shared-log writer keeps the file open
	SharedReadSoonP   float64       // probability a group member reads a shared file soon after a write
	// AwaySessionProb is the chance a session happens on a workstation
	// other than the user's own — the same-user cross-machine access that
	// produces most dirty-data recalls and stale-data exposure.
	AwaySessionProb float64

	// Virtual memory footprints (pages).
	CodePagesMin, CodePagesMax int
	DataPagesMin, DataPagesMax int
	StackPages                 int
	HeapGrowMax                int // heap pages dirtied per activity burst

	// Big-file users (traces 3-4): class-project simulators with 20 MB
	// inputs and 10 MB postprocessed-and-deleted outputs.
	BigSimUsers int

	// Backup noise: nightly backup reads flagged FlagSelfTrace, which the
	// merger must scrub (exercises the paper's merge step).
	EmitBackupNoise bool

	// Media streaming (AppStream). All zero by default: the paper's
	// community predates streaming, and zero keeps both the bootstrap
	// population and the calibrated RNG sequences untouched.
	MediaFiles       int     // media library size (0 disables the app)
	MediaFileMB      float64 // mean media object size, MB
	MediaBitrate     float64 // playback consumption rate, bytes/second
	StreamSeekBurstP float64 // chance of a scrub (seek burst) between playback segments
	StreamRandomP    float64 // chance an entire session is random-access scrubbing

	// Package build farm (AppBuildFarm). Zero FarmPackages disables it.
	FarmPackages int // dependency-DAG size per farm run
	FarmFaninMax int // max dependencies per package
	FarmWorkers  int // concurrent package builds farmed to idle hosts
}

// Default returns the baseline parameter set (traces 1-2 and 5-6 use it
// with different seeds).
func Default(seed int64) Params {
	p := Params{
		Seed:            seed,
		NumClients:      40,
		DailyUsers:      30,
		OccasionalUsers: 40,

		SessionMedian:            15 * time.Minute,
		SessionSigma:             0.8,
		GapMedian:                75 * time.Minute,
		GapSigma:                 0.9,
		ThinkMean:                40 * time.Second,
		OccasionalSessionsPerDay: 0.7,

		SmallMedian: 2 * 1024,
		SmallSigma:  1.0,
		ObjMin:      4 * 1024,
		ObjMax:      256 * 1024,
		ObjAlpha:    1.2,
		BinMin:      512 * 1024,
		BinMax:      3 << 20,
		BinAlpha:    1.1,
		DocMedian:   16 * 1024,
		DocSigma:    1.2,
		MailMedian:  64 * 1024,
		MailSigma:   0.9,
		SimInputMB:  4,
		SimOutputMB: 1.0,

		EditRate:    150 * 1024,
		CompileRate: 1 << 20,
		SimRate:     8 << 20,

		ChunkBytes: 256 * 1024,

		PmakeTargetsMin:    4,
		PmakeTargetsMax:    12,
		MigrationReuseBias: 0.7,
		MigrationUserFrac:  0.35,

		SharedLogOpenHold: 6 * time.Second,
		SharedReadSoonP:   0.8,
		AwaySessionProb:   0.22,

		CodePagesMin: 32,
		CodePagesMax: 160,
		DataPagesMin: 8,
		DataPagesMax: 64,
		StackPages:   4,
		HeapGrowMax:  256,

		BigSimUsers:     0,
		EmitBackupNoise: true,
	}
	// Application mixes. Weights are relative within a group.
	// Reads dominate everywhere (the 4:1 raw read:write ratio and the
	// 88% read-only access mix emerge from these).
	p.AppMix[GroupOS] = [NumApps]float64{
		AppEdit: 30, AppCompile: 18, AppPmake: 10, AppMail: 12,
		AppDoc: 4, AppSim: 2, AppRandomDB: 4, AppDirList: 10, AppSharedLog: 20, AppGrep: 90,
	}
	p.AppMix[GroupArch] = [NumApps]float64{
		AppEdit: 20, AppCompile: 10, AppPmake: 8, AppMail: 10,
		AppDoc: 4, AppSim: 6, AppRandomDB: 4, AppDirList: 8, AppSharedLog: 20, AppGrep: 80,
	}
	p.AppMix[GroupVLSI] = [NumApps]float64{
		AppEdit: 24, AppCompile: 12, AppPmake: 8, AppMail: 8,
		AppDoc: 6, AppSim: 5, AppRandomDB: 4, AppDirList: 8, AppSharedLog: 20, AppGrep: 80,
	}
	p.AppMix[GroupMisc] = [NumApps]float64{
		AppEdit: 30, AppMail: 22, AppDoc: 14, AppDirList: 16,
		AppCompile: 4, AppRandomDB: 4, AppSharedLog: 12, AppGrep: 70,
	}
	return p
}

// TraceParams returns the parameter set for trace n in 1..8, mirroring the
// paper's description: traces 3-4 add the two class-project users with
// 20 MB simulator inputs and 10 MB postprocessed outputs; traces 7-8 have
// heavier simulation activity and more write-sharing.
func TraceParams(n int) Params {
	if n < 1 || n > 8 {
		panic("workload: trace number out of range 1..8")
	}
	p := Default(1000 + int64(n)*7919)
	switch n {
	case 3, 4:
		p.BigSimUsers = 2
		p.SimInputMB = 20
		p.SimOutputMB = 10
	case 7, 8:
		// Heavier shared activity and simulation load.
		for g := Group(0); g < NumGroups; g++ {
			p.AppMix[g][AppSharedLog] *= 3
			p.AppMix[g][AppSim] *= 1.5
		}
		p.SharedReadSoonP = 0.7
	}
	return p
}

// ScaleCommunity multiplies the user community by factor: workstations,
// daily and occasional users, and the big-file class projects all grow
// together, while the per-user behavioural knobs stay at the paper's
// calibration. factor 25 turns the measured 40-workstation cluster into
// the 1000-client population the scale-out study runs. Factors <= 0 or
// == 1 return p unchanged.
func ScaleCommunity(p Params, factor float64) Params {
	if factor <= 0 || factor == 1 {
		return p
	}
	grow := func(n int) int {
		v := int(float64(n)*factor + 0.5)
		if v < 1 && n > 0 {
			v = 1
		}
		return v
	}
	p.NumClients = grow(p.NumClients)
	p.DailyUsers = grow(p.DailyUsers)
	p.OccasionalUsers = grow(p.OccasionalUsers)
	p.BigSimUsers = grow(p.BigSimUsers)
	return p
}

// seedStride separates shard seeds far enough that per-shard random
// streams share no obvious structure. Any large odd constant works; what
// matters is that it is fixed, so shard i's community is a pure function
// of (base seed, shard index) regardless of how many other shards exist.
const seedStride = 0x3e3779b97f4a7c15

// Split carves the community into shards equal segments and returns shard
// i's slice: an independent Params whose population is the i-th
// near-equal share (earlier shards get the remainders) and whose seed is
// derived from the base seed and the shard index alone. Two properties
// matter for the scale-out engine: the shares sum exactly to the original
// population, and shard i's parameters do not depend on the contents of
// any other shard — which is what makes per-shard op streams invariant
// across shard assignments (TestSplitStreamInvariance). shards must be in
// [1, NumClients]; Split panics otherwise.
func Split(p Params, shards, shard int) Params {
	return split(p, shards, shard, seedStride, "shard")
}

// split returns part i of n near-equal shares of p's population (earlier
// parts get the remainders), salting the seed with i*stride when n > 1.
// noun names a part in the panic messages.
func split(p Params, n, i int, stride int64, noun string) Params {
	if n < 1 || n > p.NumClients {
		panic("workload: " + noun + " count out of range [1, NumClients]")
	}
	if i < 0 || i >= n {
		panic("workload: " + noun + " index out of range")
	}
	share := func(total int) int {
		v := total / n
		if i < total%n {
			v++
		}
		return v
	}
	p.NumClients = share(p.NumClients)
	p.DailyUsers = share(p.DailyUsers)
	p.OccasionalUsers = share(p.OccasionalUsers)
	p.BigSimUsers = share(p.BigSimUsers)
	if n > 1 {
		p.Seed += int64(i) * stride
	}
	return p
}

// siteSeedStride salts the site level of a hierarchical split. It must
// differ from seedStride so that (site i, segment j) and (site j, segment
// i) never derive the same seed: a community split site-major and then
// segment-wise gets Seed + i*siteSeedStride + j*seedStride, which is
// unique per (i, j) pair for any grid the population can support.
const siteSeedStride = 0x5851f42d4c957f2d

// SplitSite carves the community into near-equal site shares — the upper
// level of the segment → site → WAN hierarchy. It obeys the same two
// invariants as Split (shares sum exactly to the original population;
// site i's parameters depend only on the base seed and i), but salts the
// seed with a different stride, so composing SplitSite with Split yields
// a distinct deterministic community per (site, segment) pair:
//
//	seg := workload.Split(workload.SplitSite(total, sites, s), segs, j)
//
// sites must be in [1, NumClients]; SplitSite panics otherwise.
func SplitSite(p Params, sites, site int) Params {
	return split(p, sites, site, siteSeedStride, "site")
}

// BSD1985 returns a parameter set approximating the 1985 BSD study's
// world, the baseline against which the paper measures its "factor of 20"
// throughput growth: a few 1-MIPS time-shared VAXes instead of personal
// 10-MIPS workstations (many users per machine, processing rates an order
// of magnitude lower), 1985-sized files (large files an order of magnitude
// smaller — the paper's central observation is that they grew 10x by
// 1991), and no process migration. Running Default and BSD1985 through the
// same Table 2 analysis reproduces the growth factor as a measurement
// rather than a citation.
func BSD1985(seed int64) Params {
	p := Default(seed)
	// Three time-shared VAXes serve the whole community.
	p.NumClients = 3
	p.DailyUsers = 24
	p.OccasionalUsers = 30

	// 1-MIPS processing: everything is ~10x slower.
	p.EditRate /= 10
	p.CompileRate /= 10
	p.SimRate /= 10

	// 1985-sized files: the big end of every distribution shrinks 8-10x.
	p.SmallMedian /= 2
	p.ObjMax /= 8
	p.BinMin /= 8
	p.BinMax /= 8
	p.DocMedian /= 4
	p.MailMedian /= 4
	p.SimInputMB = 0.5
	p.SimOutputMB = 0.15
	p.BigSimUsers = 0

	// No Sprite: no migration, and sessions compete for shared CPUs, so
	// users get less done per session.
	p.MigrationUserFrac = 0
	p.ThinkMean *= 3
	for g := Group(0); g < NumGroups; g++ {
		p.AppMix[g][AppPmake] = 0
	}
	return p
}

// StreamingParams returns a media-streaming-heavy community: the 1991
// population plus a shared media library, with every group spending most
// of its time in playback sessions. The "does the Sprite cache model hold
// on a workload its designers never saw?" configuration — single-open,
// huge sequential reads, near-zero writes.
func StreamingParams(seed int64) Params {
	p := Default(seed)
	p.MediaFiles = 36
	p.MediaFileMB = 48
	p.MediaBitrate = 1.5 * (1 << 20) // ~12 Mbit/s video
	p.StreamSeekBurstP = 0.25
	p.StreamRandomP = 0.15
	for g := Group(0); g < NumGroups; g++ {
		// Streaming dominates but the background community stays on, so
		// the caches still see metadata and small-file traffic.
		p.AppMix[g][AppStream] = 150
	}
	return p
}

// BuildFarmParams returns a package-build-farm-heavy community: most
// daily users run pmake-style farm builds over seeded dependency DAGs,
// fanned out to idle workstations through process migration — the
// heaviest migration load any configuration generates.
func BuildFarmParams(seed int64) Params {
	p := Default(seed)
	p.FarmPackages = 24
	p.FarmFaninMax = 3
	p.FarmWorkers = 8
	p.MigrationUserFrac = 0.9
	for g := Group(0); g < NumGroups; g++ {
		p.AppMix[g][AppBuildFarm] = 80
	}
	return p
}
