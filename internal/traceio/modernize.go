package traceio

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"spritefs/internal/server"
	"spritefs/internal/trace"
)

// Profile is the set of modernization knobs: how a captured trace is
// rescaled toward a present-day workload, TraceTracker-style. The zero
// knobs are identity (Normalize applies defaults).
type Profile struct {
	// SizeScale multiplies every offset, length and size, modelling the
	// growth of file and transfer sizes since the capture. 0 or 1 leaves
	// sizes alone.
	SizeScale float64
	// RateScale divides every timestamp: 4 makes the community issue
	// operations four times as fast (per-machine throughput growth).
	RateScale float64
	// ClientScale replicates the whole community N times: each clone gets
	// disjoint client, user, process, handle and file ID ranges, so the
	// modernized trace exercises N times the workstations against the
	// same server count.
	ClientScale int
	// FileScale spreads each file's open/close sessions round-robin
	// across N distinct copies of the file, growing the active file
	// population (and cooling per-file locality) without inventing new
	// access patterns.
	FileScale int
	// CloneSkew offsets each successive clone's start time so replicas
	// do not hammer the servers in lockstep. Default 5ms.
	CloneSkew time.Duration
}

// Normalize fills defaulted knobs.
func (p Profile) Normalize() Profile {
	if p.SizeScale <= 0 {
		p.SizeScale = 1
	}
	if p.RateScale <= 0 {
		p.RateScale = 1
	}
	if p.ClientScale < 1 {
		p.ClientScale = 1
	}
	if p.FileScale < 1 {
		p.FileScale = 1
	}
	if p.CloneSkew <= 0 {
		p.CloneSkew = 5 * time.Millisecond
	}
	return p
}

// ParseProfile builds a Profile from a compact spec of comma-separated
// key=value pairs, e.g. "size=8,rate=4,clients=4,files=2,skew=5ms".
// Keys: size (float ×), rate (float ×), clients (int ×), files (int ×),
// skew (duration). An empty spec is the identity profile.
func ParseProfile(spec string) (Profile, error) {
	var p Profile
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return p, fmt.Errorf("traceio: bad profile entry %q (want key=value)", part)
		}
		key, val := strings.ToLower(strings.TrimSpace(kv[0])), strings.TrimSpace(kv[1])
		var err error
		switch key {
		case "size":
			p.SizeScale, err = strconv.ParseFloat(val, 64)
		case "rate":
			p.RateScale, err = strconv.ParseFloat(val, 64)
		case "clients":
			p.ClientScale, err = strconv.Atoi(val)
		case "files":
			p.FileScale, err = strconv.Atoi(val)
		case "skew":
			p.CloneSkew, err = time.ParseDuration(val)
		default:
			err = fmt.Errorf("traceio: unknown profile key %q", key)
		}
		if err != nil {
			return p, fmt.Errorf("traceio: profile entry %q: %w", part, err)
		}
	}
	for _, f := range []float64{p.SizeScale, p.RateScale} {
		if math.IsNaN(f) || math.IsInf(f, 0) { // ParseFloat reads "nan" and "inf"
			return p, fmt.Errorf("traceio: profile %q: size and rate must be finite", spec)
		}
	}
	return p.Normalize(), nil
}

// ModernizeReport records what Modernize changed, before → after.
type ModernizeReport struct {
	Profile  Profile
	Records  [2]int
	Clients  [2]int
	Files    [2]int
	Bytes    [2]int64 // read+written payload
	Duration [2]time.Duration
}

// String renders the report as an aligned before → after table.
func (r *ModernizeReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "modernize: size ×%g, rate ×%g, clients ×%d, files ×%d, skew %s\n",
		r.Profile.SizeScale, r.Profile.RateScale, r.Profile.ClientScale,
		r.Profile.FileScale, r.Profile.CloneSkew)
	fmt.Fprintf(&b, "records:   %12d -> %d\n", r.Records[0], r.Records[1])
	fmt.Fprintf(&b, "clients:   %12d -> %d\n", r.Clients[0], r.Clients[1])
	fmt.Fprintf(&b, "files:     %12d -> %d\n", r.Files[0], r.Files[1])
	fmt.Fprintf(&b, "payload:   %12d -> %d bytes\n", r.Bytes[0], r.Bytes[1])
	fmt.Fprintf(&b, "duration:  %12s -> %s\n", r.Duration[0], r.Duration[1])
	return b.String()
}

// Modernize rescales recs according to p and returns the transformed
// stream (sorted by time, deterministically tie-broken) plus a report of
// what changed. The input slice is not modified.
func Modernize(recs []trace.Record, p Profile) ([]trace.Record, *ModernizeReport) {
	p = p.Normalize()
	rep := &ModernizeReport{Profile: p}
	rep.Records[0] = len(recs)
	rep.Clients[0], rep.Files[0], rep.Bytes[0], rep.Duration[0] = census(recs)
	if len(recs) == 0 {
		return nil, rep
	}

	// Strides keep every clone's ID ranges disjoint.
	var maxClient, maxUser, maxProc int32
	var maxHandle, maxSeq uint64
	for i := range recs {
		r := &recs[i]
		maxClient = max(maxClient, r.Client)
		maxUser = max(maxUser, r.User)
		maxProc = max(maxProc, r.Proc)
		maxHandle = max(maxHandle, r.Handle)
		maxSeq = max(maxSeq, server.SeqOf(r.File))
	}
	clientStride := maxClient + 1
	userStride := maxUser + 1
	procStride := maxProc + 1
	handleStride := maxHandle + 1
	seqStride := maxSeq + 1

	// sessionCopy spreads sessions round-robin across FileScale copies:
	// the copy rotates at every open of the file, handle-carrying records
	// follow their open, and bare-file records (create/delete/truncate)
	// follow the file's current copy.
	sessions := make(map[uint64]uint64)    // file → opens seen so far
	handleCopy := make(map[uint64]uint64)  // handle → copy index
	currentCopy := make(map[uint64]uint64) // file → copy of the latest open
	copyOf := func(r *trace.Record) uint64 {
		if p.FileScale == 1 {
			return 0
		}
		if r.Kind == trace.KindOpen {
			c := sessions[r.File] % uint64(p.FileScale)
			sessions[r.File]++
			currentCopy[r.File] = c
			if r.Handle != 0 {
				handleCopy[r.Handle] = c
			}
			return c
		}
		if r.Handle != 0 {
			if c, ok := handleCopy[r.Handle]; ok {
				return c
			}
		}
		return currentCopy[r.File]
	}

	out := make([]trace.Record, 0, len(recs)*p.ClientScale)
	for clone := 0; clone < p.ClientScale; clone++ {
		k := int32(clone)
		sessions = make(map[uint64]uint64)
		handleCopy = make(map[uint64]uint64)
		currentCopy = make(map[uint64]uint64)
		for i := range recs {
			r := recs[i]
			copyIdx := copyOf(&recs[i])
			r.Client += k * clientStride
			r.User += k * userStride
			r.Proc += k * procStride
			if r.Handle != 0 {
				r.Handle += uint64(clone) * handleStride
			}
			seq := server.SeqOf(r.File) + (uint64(clone)*uint64(p.FileScale)+copyIdx)*seqStride
			r.File = server.FileID(server.HomeOf(r.File), seq)
			r.Server = server.HomeOf(r.File)
			if p.SizeScale != 1 {
				r.Offset = scale(r.Offset, p.SizeScale)
				r.Length = scale(r.Length, p.SizeScale)
				r.Size = scale(r.Size, p.SizeScale)
			}
			r.Time = time.Duration(float64(r.Time)/p.RateScale) + time.Duration(clone)*p.CloneSkew
			out = append(out, r)
		}
	}
	// The interleave of skewed clones must be deterministic: order by
	// time, then clone, then original position (both encoded in the
	// append order, which SliceStable preserves).
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })

	rep.Records[1] = len(out)
	rep.Clients[1], rep.Files[1], rep.Bytes[1], rep.Duration[1] = census(out)
	return out, rep
}

// scale multiplies a byte quantity, preserving sign conventions (negative
// sentinels pass through).
func scale(v int64, f float64) int64 {
	if v <= 0 {
		return v
	}
	return int64(float64(v) * f)
}

// census counts distinct clients and files, total read+write payload and
// the trace duration.
func census(recs []trace.Record) (clients, files int, bytes int64, dur time.Duration) {
	cs := make(map[int32]bool)
	fs := make(map[uint64]bool)
	for i := range recs {
		r := &recs[i]
		cs[r.Client] = true
		fs[r.File] = true
		switch r.Kind {
		case trace.KindRead, trace.KindWrite, trace.KindDirRead:
			bytes += r.Length
		}
		if r.Time > dur {
			dur = r.Time
		}
	}
	return len(cs), len(fs), bytes, dur
}
