package analysis

import (
	"time"

	"spritefs/internal/stats"
	"spritefs/internal/trace"
)

// Access classes of Table 3.
const (
	ReadOnly = iota
	WriteOnly
	ReadWrite
	NumClasses
)

// ClassNames are the Table 3 row labels.
var ClassNames = [NumClasses]string{"read-only", "write-only", "read-write"}

// Sequentiality buckets of Table 3.
const (
	WholeFile = iota
	OtherSeq
	Random
	NumSeqs
)

// AccessPatterns reproduces Table 3 and Figures 1-3 in one pass. An access
// is one open-use-close episode of a file; its class reflects actual usage
// (read and/or written), not the open mode, exactly as the paper defines.
type AccessPatterns struct {
	// Table 3.
	Counts [NumClasses][NumSeqs]int64
	Bytes  [NumClasses][NumSeqs]int64

	// Figure 1: sequential run lengths, weighted by runs and by bytes.
	RunsByCount *stats.Hist
	RunsByBytes *stats.Hist

	// Figure 2: file size at close, weighted by accesses and by bytes
	// transferred during the access.
	SizeByFiles *stats.Hist
	SizeByBytes *stats.Hist

	// Figure 3: open durations in seconds.
	OpenTimes *stats.Hist

	open map[uint64]*openState
}

type openState struct {
	openedAt     time.Duration
	bytesRead    int64
	bytesWritten int64

	runs       int   // completed sequential runs (with data)
	runStart   int64 // offset where the current run began
	runBytes   int64
	pos        int64 // expected next sequential offset
	inRun      bool
	wholeFrom0 bool // the first run started at offset 0
}

// NewAccessPatterns returns the combined Table 3 / Figures 1-3 analyzer.
func NewAccessPatterns() *AccessPatterns {
	return &AccessPatterns{
		RunsByCount: stats.NewHist(1, 100e6, 8),
		RunsByBytes: stats.NewHist(1, 100e6, 8),
		SizeByFiles: stats.NewHist(1, 100e6, 8),
		SizeByBytes: stats.NewHist(1, 100e6, 8),
		OpenTimes:   stats.NewHist(0.001, 10000, 8),
		open:        make(map[uint64]*openState),
	}
}

func (a *AccessPatterns) endRun(st *openState) {
	if !st.inRun || st.runBytes == 0 {
		st.inRun = false
		return
	}
	a.RunsByCount.Add1(float64(st.runBytes))
	a.RunsByBytes.Add(float64(st.runBytes), float64(st.runBytes))
	if st.runs == 0 && st.runStart == 0 {
		st.wholeFrom0 = true
	}
	st.runs++
	st.inRun = false
	st.runBytes = 0
}

// Observe implements Sink.
func (a *AccessPatterns) Observe(r *trace.Record) {
	if r.IsDirectory() || r.Handle == 0 {
		return
	}
	switch r.Kind {
	case trace.KindOpen:
		a.open[r.Handle] = &openState{openedAt: r.Time}
	case trace.KindRead, trace.KindWrite:
		st := a.open[r.Handle]
		if st == nil || r.Length <= 0 {
			return
		}
		if st.inRun && r.Offset != st.pos {
			a.endRun(st)
		}
		if !st.inRun {
			st.inRun = true
			st.runStart = r.Offset
		}
		st.runBytes += r.Length
		st.pos = r.Offset + r.Length
		if r.Kind == trace.KindRead {
			st.bytesRead += r.Length
		} else {
			st.bytesWritten += r.Length
		}
	case trace.KindReposition:
		st := a.open[r.Handle]
		if st == nil {
			return
		}
		a.endRun(st)
		st.pos = r.Offset
	case trace.KindClose:
		st := a.open[r.Handle]
		if st == nil {
			return
		}
		delete(a.open, r.Handle)
		a.closeAccess(st, r)
	}
}

func (a *AccessPatterns) closeAccess(st *openState, r *trace.Record) {
	// Figure 3 includes every open-close episode.
	a.OpenTimes.Add1((r.Time - st.openedAt).Seconds())

	total := st.bytesRead + st.bytesWritten
	if total == 0 {
		return // no data transferred: not an access in the Table 3 sense
	}
	// The run in progress at close completes. Whole-file detection needs
	// the run count before and after: a whole-file access is exactly one
	// run, starting at byte 0, covering the file's size at close.
	a.endRun(st)

	var class int
	switch {
	case st.bytesRead > 0 && st.bytesWritten > 0:
		class = ReadWrite
	case st.bytesRead > 0:
		class = ReadOnly
	default:
		class = WriteOnly
	}
	var seq int
	switch {
	case st.runs > 1:
		seq = Random
	case st.wholeFrom0 && total >= r.Size && r.Size > 0:
		seq = WholeFile
	default:
		seq = OtherSeq
	}
	a.Counts[class][seq]++
	a.Bytes[class][seq] += total

	// Figure 2.
	size := r.Size
	if size <= 0 {
		size = total
	}
	a.SizeByFiles.Add1(float64(size))
	a.SizeByBytes.Add(float64(size), float64(total))
}

// Finish implements Sink. Accesses still open at trace end are discarded,
// as the paper's analysis did.
func (a *AccessPatterns) Finish() { a.open = make(map[uint64]*openState) }

// ClassPct returns the percentage of accesses (and of bytes) in the given
// class — Table 3's first two columns.
func (a *AccessPatterns) ClassPct(class int) (accesses, bytes float64) {
	var totalN, totalB, n, b int64
	for c := 0; c < NumClasses; c++ {
		for s := 0; s < NumSeqs; s++ {
			totalN += a.Counts[c][s]
			totalB += a.Bytes[c][s]
			if c == class {
				n += a.Counts[c][s]
				b += a.Bytes[c][s]
			}
		}
	}
	return stats.Ratio(n, totalN), stats.Ratio(b, totalB)
}

// SeqPct returns, within a class, the percentage of accesses and bytes in
// the given sequentiality bucket — Table 3's last two columns.
func (a *AccessPatterns) SeqPct(class, seq int) (accesses, bytes float64) {
	var totalN, totalB int64
	for s := 0; s < NumSeqs; s++ {
		totalN += a.Counts[class][s]
		totalB += a.Bytes[class][s]
	}
	return stats.Ratio(a.Counts[class][seq], totalN), stats.Ratio(a.Bytes[class][seq], totalB)
}
