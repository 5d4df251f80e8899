package traceio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"spritefs/internal/trace"
)

// perServer is a small four-server capture: time-ordered per server, with
// cross-server timestamp ties and one self-trace record Merge must scrub.
func perServer() [][]trace.Record {
	out := make([][]trace.Record, 4)
	for i := 0; i < 40; i++ {
		srv := i % 4
		r := trace.Record{
			Time: time.Duration(i/2) * time.Millisecond, Kind: trace.KindRead,
			Server: int16(srv), Client: int32(i % 7), User: int32(i % 5),
			File: uint64(srv)<<48 | uint64(i), Handle: uint64(i + 1), Length: int64(100 + i),
		}
		if i == 17 {
			r.Flags = trace.FlagSelfTrace
		}
		out[srv] = append(out[srv], r)
	}
	return out
}

// writeTrace writes recs to dir/name as binary, or as tracefmt-style text.
func writeTrace(t *testing.T, dir, name string, text bool, ver uint16, recs []trace.Record) string {
	t.Helper()
	var buf bytes.Buffer
	var w interface {
		Write(*trace.Record) error
		Flush() error
	}
	var err error
	if text {
		w, err = trace.NewTextWriterVersion(&buf, ver)
	} else {
		w, err = trace.NewWriterVersion(&buf, ver)
	}
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
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSourceOpenMergesLikeHandOpenedReaders(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	var byHand []trace.Stream
	for srv, recs := range perServer() {
		text := srv == 2 // one file in the text encoding, sniffed per file
		path := writeTrace(t, dir, "srv"+string(rune('0'+srv)), text, 1, recs)
		paths = append(paths, path)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var s trace.Stream
		if text {
			s, err = trace.NewTextReader(bytes.NewReader(raw))
		} else {
			s, err = trace.NewReader(bytes.NewReader(raw))
		}
		if err != nil {
			t.Fatal(err)
		}
		byHand = append(byHand, s)
	}
	want, err := trace.Collect(trace.Merge(byHand...))
	if err != nil {
		t.Fatal(err)
	}

	s, closeAll, err := Source{}.Open(paths, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll()
	got, err := trace.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 39 {
		t.Errorf("merged %d records, want 39 (40 less the scrubbed self-trace one)", len(got))
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("Source.Open differs from trace.Merge over hand-opened readers")
	}
}

func TestSourceOpenRefusesNativeImportedMix(t *testing.T) {
	dir := t.TempDir()
	imported, _ := importSample(t)
	paths := []string{
		writeTrace(t, dir, "native", false, 1, perServer()[0]),
		writeTrace(t, dir, "imported", false, ImportVersion, imported),
	}
	s, closeAll, err := Source{}.Open(paths, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll()
	if _, err := s.Next(); err == nil || !strings.Contains(err.Error(), "differing header versions") {
		t.Errorf("v1 native + v2 imported: Next error = %v, want Merge's version refusal", err)
	}
}

func TestSourceOpenImportsWithOneReportPerFile(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for _, name := range []string{"a.csv", "b.csv"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(sampleCSV), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	recs, rep := importSample(t)

	var report bytes.Buffer
	s, closeAll, err := Source{Format: "csv"}.Open(paths, &report)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll()
	if want := rep.String() + rep.String(); report.String() != want {
		t.Errorf("import report:\n%s\nwant one report per file:\n%s", report.String(), want)
	}
	got, err := trace.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*len(recs) {
		t.Errorf("merged %d records from two imports of %d", len(got), len(recs))
	}
}

func TestSourceImportSwitch(t *testing.T) {
	if _, _, err := (Source{Format: "strace"}).Import(strings.NewReader(sampleStrace)); err != nil {
		t.Errorf("strace: %v", err)
	}
	tsv := strings.ReplaceAll(strings.ReplaceAll(sampleCSV, "# time,", "#"), ",", "\t")
	if _, _, err := (Source{Format: "csv", Map: "sep=tab"}).Import(strings.NewReader(tsv)); err != nil {
		t.Errorf("csv with -map sep=tab: %v", err)
	}
	if _, _, err := (Source{Format: "csv", Map: "time"}).Import(strings.NewReader(sampleCSV)); err == nil {
		t.Error("malformed mapping spec accepted")
	}
	for _, format := range []string{"", "nfsdump"} {
		if _, _, err := (Source{Format: format}).Import(strings.NewReader(sampleCSV)); err == nil {
			t.Errorf("Import with Format %q succeeded, want an unknown-format error", format)
		}
	}
}

// closeCounter is an in-memory file that records its Close.
type closeCounter struct {
	io.Reader
	closed *int
}

func (c closeCounter) Close() error { *c.closed++; return nil }

func TestSourceOpenClosesOpenedFilesWhenALaterPathFails(t *testing.T) {
	good := new(bytes.Buffer)
	w, err := trace.NewWriter(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{"good0": good.Bytes(), "good1": good.Bytes(), "garbage": []byte("not a trace")}
	for _, bad := range []string{"missing", "garbage"} {
		closed := map[string]*int{}
		opener := func(p string) (io.ReadCloser, error) {
			raw, ok := files[p]
			if !ok {
				return nil, os.ErrNotExist
			}
			closed[p] = new(int)
			return closeCounter{bytes.NewReader(raw), closed[p]}, nil
		}
		s, closeAll, err := Source{}.open(opener, []string{"good0", "good1", bad, "never"}, nil)
		if err == nil || s != nil || closeAll != nil {
			t.Fatalf("%s: open = (%v, %v, %v), want only an error", bad, s, closeAll != nil, err)
		}
		if bad == "missing" && !errors.Is(err, os.ErrNotExist) {
			t.Errorf("missing: error %v does not wrap the open failure", err)
		}
		if bad == "garbage" && !strings.Contains(err.Error(), "garbage: ") {
			t.Errorf("garbage: error %q does not name the file", err)
		}
		for p, n := range closed {
			if *n != 1 {
				t.Errorf("%s: file %s closed %d times, want 1", bad, p, *n)
			}
		}
		if _, opened := closed["never"]; opened {
			t.Errorf("%s: opened a path after the failing one", bad)
		}
	}
}
