package analysis

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/trace"
	"spritefs/internal/workload"
)

// referenceConsistencyActions is the reference model of ConsistencyActions:
// the analyzer with its open tables in maps, verbatim but for its names and
// its order-free note.
type referenceConsistencyActions struct {
	FileOpens int64
	CWS       int64
	Recalls   int64

	files map[uint64]*refActionFile
}

type refActionFile struct {
	readers    map[int32]int
	writers    map[int32]int
	lastWriter int32
	sharing    bool
}

func newReferenceConsistencyActions() *referenceConsistencyActions {
	return &referenceConsistencyActions{files: make(map[uint64]*refActionFile)}
}

func (a *referenceConsistencyActions) file(id uint64) *refActionFile {
	f := a.files[id]
	if f == nil {
		f = &refActionFile{
			readers:    make(map[int32]int),
			writers:    make(map[int32]int),
			lastWriter: -1,
		}
		a.files[id] = f
	}
	return f
}

func (a *referenceConsistencyActions) Observe(r *trace.Record) {
	if r.IsDirectory() {
		return
	}
	switch r.Kind {
	case trace.KindOpen:
		a.FileOpens++
		f := a.file(r.File)
		if f.lastWriter >= 0 && f.lastWriter != r.Client {
			a.Recalls++
			f.lastWriter = -1
		}
		write := r.Flags&trace.FlagWriteMode != 0
		if write {
			f.writers[r.Client]++
		} else {
			f.readers[r.Client]++
		}
		if !f.sharing && refOpeners(f) >= 2 && len(f.writers) >= 1 {
			f.sharing = true
			a.CWS++
		}
	case trace.KindClose:
		f := a.file(r.File)
		write := r.Flags&trace.FlagWriteMode != 0
		m := f.readers
		if write {
			m = f.writers
		}
		if m[r.Client] > 0 {
			m[r.Client]--
			if m[r.Client] == 0 {
				delete(m, r.Client)
			}
		}
		if write {
			f.lastWriter = r.Client
		}
		if f.sharing && refOpeners(f) == 0 {
			f.sharing = false
		}
	case trace.KindDelete, trace.KindTruncate:
		delete(a.files, r.File)
	}
}

func refOpeners(f *refActionFile) int {
	n := len(f.readers)
	for c := range f.writers {
		if f.readers[c] == 0 {
			n++
		}
	}
	return n
}

func (a *referenceConsistencyActions) Finish() {}

// randomOpenRecords is a random open/close pattern of four clients over
// three files: a client may open a file it already holds open, in either
// mode, close its opens in any order or close one it never made, and
// files are deleted, truncated and mistaken for directories now and then.
func randomOpenRecords(seed int64, n int) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, n)
	for i := range recs {
		r := &recs[i]
		r.Time = time.Duration(i) * time.Second
		r.Client = int32(rng.Intn(4))
		r.File = uint64(rng.Intn(3))
		r.Flags = trace.FlagReadMode
		if rng.Intn(2) == 0 {
			r.Flags |= trace.FlagWriteMode
		}
		switch k := rng.Intn(20); {
		case k < 10:
			r.Kind = trace.KindOpen
		case k < 18:
			r.Kind = trace.KindClose
		case k < 19:
			r.Kind = trace.KindDelete
		default:
			r.Kind = trace.KindTruncate
		}
		if rng.Intn(50) == 0 {
			r.Flags |= trace.FlagDirectory
		}
	}
	return recs
}

// bothModes counts the opens after which one client holds a file open for
// reading and for writing at once. A delete or truncate forgets the file's
// opens, as ConsistencyActions does.
func bothModes(recs []trace.Record) int {
	type key struct {
		client int32
		file   uint64
	}
	reads, writes := map[key]int{}, map[key]int{}
	n := 0
	for i := range recs {
		r := &recs[i]
		if r.IsDirectory() {
			continue
		}
		k := key{r.Client, r.File}
		m := reads
		if r.Flags&trace.FlagWriteMode != 0 {
			m = writes
		}
		switch r.Kind {
		case trace.KindOpen:
			m[k]++
			if reads[k] > 0 && writes[k] > 0 {
				n++
			}
		case trace.KindClose:
			if m[k] > 0 {
				m[k]--
			}
		case trace.KindDelete, trace.KindTruncate:
			for _, m := range []map[key]int{reads, writes} {
				for k := range m {
					if k.file == r.File {
						delete(m, k)
					}
				}
			}
		}
	}
	return n
}

// TestConsistencyActionsMatchesReference runs ConsistencyActions and its
// reference model in lockstep over random open patterns and over traces
// captured from the cluster — every Section 4 trace configuration, an hour
// each. It fails unless the inputs together start write-sharing, recall
// dirty data and have one client hold a file open in both modes.
func TestConsistencyActionsMatchesReference(t *testing.T) {
	traces := map[string][]trace.Record{}
	for seed := int64(1); seed <= 20; seed++ {
		traces[fmt.Sprintf("random %d", seed)] = randomOpenRecords(seed, 500)
	}
	for n := 1; n <= 8; n++ {
		p := workload.TraceParams(n)
		p.NumClients, p.DailyUsers, p.OccasionalUsers = 12, 9, 9
		cfg := cluster.DefaultConfig(p)
		cfg.SamplePeriod = 0
		cl := cluster.New(cfg)
		cl.Run(time.Hour)
		recs, err := trace.Collect(trace.Merge(cl.PerServerStreams()...))
		if err != nil {
			t.Fatal(err)
		}
		traces[fmt.Sprintf("trace %d", n)] = recs
	}
	var cws, recalls int64
	both := 0
	for name, recs := range traces {
		got, want := NewConsistencyActions(), newReferenceConsistencyActions()
		for i := range recs {
			got.Observe(&recs[i])
			want.Observe(&recs[i])
			if got.FileOpens != want.FileOpens || got.CWS != want.CWS || got.Recalls != want.Recalls {
				t.Fatalf("%s, record %d (%+v): analyzer (%d opens, %d CWS, %d recalls), reference (%d, %d, %d)",
					name, i, recs[i], got.FileOpens, got.CWS, got.Recalls, want.FileOpens, want.CWS, want.Recalls)
			}
		}
		cws += want.CWS
		recalls += want.Recalls
		both += bothModes(recs)
	}
	if cws == 0 || recalls == 0 || both == 0 {
		t.Errorf("the inputs drove %d write-sharing starts, %d recalls and %d opens in both modes; each must be positive", cws, recalls, both)
	}
	t.Logf("%d write-sharing starts, %d recalls, %d opens in both modes", cws, recalls, both)
}
