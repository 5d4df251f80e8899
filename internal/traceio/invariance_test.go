package traceio_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spritefs/internal/replay"
	"spritefs/internal/trace"
	"spritefs/internal/traceio"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// syntheticCSV deterministically fabricates a plausible multi-client
// CSV I/O dump: a few dozen interleaved sessions with sequential reads,
// rewrites, seeks and deletes, including orphaned accesses (sessions
// whose open precedes the capture window).
func syntheticCSV() string {
	rng := rand.New(rand.NewSource(1991))
	var b strings.Builder
	b.WriteString("# synthetic foreign dump: time,client,op,path,offset,length\n")
	t := 0.0
	paths := make([]string, 24)
	for i := range paths {
		paths[i] = fmt.Sprintf("/vol%d/data/file%02d.dat", i%3, i)
	}
	for s := 0; s < 120; s++ {
		client := fmt.Sprintf("host%02d", rng.Intn(10))
		path := paths[rng.Intn(len(paths))]
		t += rng.Float64() * 0.05
		orphan := rng.Intn(5) == 0
		if !orphan {
			fmt.Fprintf(&b, "%.4f,%s,open,%s,,\n", t, client, path)
		}
		off := 0
		for r := 0; r < 1+rng.Intn(6); r++ {
			t += rng.Float64() * 0.01
			n := 1024 * (1 + rng.Intn(64))
			switch rng.Intn(4) {
			case 0:
				fmt.Fprintf(&b, "%.4f,%s,write,%s,%d,%d\n", t, client, path, off, n)
			case 1:
				fmt.Fprintf(&b, "%.4f,%s,seek,%s,%d,\n", t, client, path, rng.Intn(1<<20))
			default:
				fmt.Fprintf(&b, "%.4f,%s,read,%s,%d,%d\n", t, client, path, off, n)
			}
			off += n
		}
		if rng.Intn(4) != 0 { // some sessions never close inside the window
			t += rng.Float64() * 0.01
			fmt.Fprintf(&b, "%.4f,%s,close,%s,,\n", t, client, path)
		}
		if rng.Intn(20) == 0 {
			t += 0.001
			fmt.Fprintf(&b, "%.4f,%s,delete,%s,,\n", t, client, path)
		}
	}
	return b.String()
}

// imported is the pipeline under test: the synthetic CSV dump imported
// into native records.
func imported(t *testing.T) []trace.Record {
	t.Helper()
	recs, _, err := traceio.ImportCSV(strings.NewReader(syntheticCSV()),
		traceio.DefaultCSVMapping(), traceio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestImportGolden pins the text rendering of the imported handwritten
// sample byte-for-byte; regenerate with -update-golden after an
// intentional importer change.
func TestImportGolden(t *testing.T) {
	recs, _, err := traceio.ImportCSV(strings.NewReader(goldenSampleCSV),
		traceio.DefaultCSVMapping(), traceio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewTextWriterVersion(&buf, traceio.ImportVersion)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "sample_imported.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("imported trace drifted from golden (run with -update-golden if intentional)\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
}

const goldenSampleCSV = `# time,client,op,path,offset,length
0.000,ws1,open,/home/a/paper.tex,,
0.010,ws1,read,/home/a/paper.tex,0,4096
0.020,ws1,read,/home/a/paper.tex,4096,4096
0.030,ws2,write,/home/b/out.log,0,512
0.040,ws1,close,/home/a/paper.tex,,
0.050,ws2,write,/home/b/out.log,512,512
0.060,ws2,seek,/home/b/out.log,0,
0.070,ws2,read,/home/b/out.log,,256
0.080,ws2,delete,/tmp/scratch,,
`

// TestImportedTraceWorkerInvariant is the acceptance criterion: an
// imported trace replayed under a config sweep produces
// byte-identical reports at 1, 2, 4 and 8 workers.
func TestImportedTraceWorkerInvariant(t *testing.T) {
	recs := imported(t)
	if len(recs) == 0 {
		t.Fatal("pipeline produced no records")
	}
	cfgs := []replay.Config{
		{Name: "base", AsFastAsPossible: true},
		{Name: "bigcache", AsFastAsPossible: true, FixedCachePages: 4096},
		{Name: "cache=16", AsFastAsPossible: true, FixedCachePages: 16},
		{Name: "prefetch", AsFastAsPossible: true, PrefetchBlocks: 2},
	}
	ref, err := replay.RunSweep(recs, cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	refTSV := replay.SweepTable(ref).TSV()
	for _, workers := range []int{2, 4, 8} {
		got, err := replay.RunSweep(recs, cfgs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range cfgs {
			if ref[i].Stats != got[i].Stats {
				t.Errorf("workers=%d config %q: stats diverge", workers, cfgs[i].Name)
			}
			if !reflect.DeepEqual(ref[i].Report, got[i].Report) {
				t.Errorf("workers=%d config %q: reports diverge", workers, cfgs[i].Name)
			}
		}
		if tsv := replay.SweepTable(got).TSV(); tsv != refTSV {
			t.Fatalf("workers=%d: sweep table not byte-identical to workers=1", workers)
		}
	}
}

// TestImportedTraceReplays sanity-checks that the imported stream
// actually drives the cluster: records apply, files bootstrap, no
// unknown handles (the importer's whole job), and the interleaved
// sessions reach the servers' consistency actions.
func TestImportedTraceReplays(t *testing.T) {
	recs := imported(t)
	res, err := replay.Run(replay.Config{Name: "smoke", AsFastAsPossible: true},
		trace.NewSliceStream(recs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Applied == 0 {
		t.Fatal("nothing applied")
	}
	if res.Stats.UnknownHandle != 0 {
		t.Fatalf("UnknownHandle = %d, want 0 — importer emitted unbracketed accesses", res.Stats.UnknownHandle)
	}
	if res.Stats.Errors != 0 {
		t.Fatalf("replay errors = %d, want 0", res.Stats.Errors)
	}
	if t10 := res.Report.Table10; t10.CWSPct <= 0 || t10.RecallPct <= 0 {
		t.Fatalf("Table 10 cws %.2f%%, recall %.2f%%; want both above zero", t10.CWSPct, t10.RecallPct)
	}
}
