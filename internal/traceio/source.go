package traceio

import (
	"fmt"
	"io"
	"os"

	"spritefs/internal/trace"
)

// Source describes how a tool's input files become one record stream. It
// is the read side of every trace tool: the zero value opens native
// traces of either encoding, and Format turns the same paths into
// foreign dumps run through an importer.
type Source struct {
	// Format is "" for native traces, or the importer to run each file
	// through: "csv" or "strace".
	Format string
	// Map is the ParseCSVMapping spec for Format "csv"; empty selects
	// DefaultCSVMapping.
	Map string
	// Options tune the importers.
	Options Options
}

// Import runs r through the importer Format names.
func (s Source) Import(r io.Reader) ([]trace.Record, *ImportReport, error) {
	switch s.Format {
	case "csv":
		m, err := ParseCSVMapping(s.Map)
		if err != nil {
			return nil, nil, err
		}
		return ImportCSV(r, m, s.Options)
	case "strace":
		return ImportStrace(r, s.Options)
	default:
		return nil, nil, fmt.Errorf("traceio: unknown import format %q (want csv or strace)", s.Format)
	}
}

// Open opens every path and merges the files into one time-ordered
// stream, as the paper's post-processing merged its per-server trace
// files: trace.Merge scrubs self-trace records and refuses to interleave
// differing header versions (a native capture with an imported trace).
// Native files are read incrementally and stay open until the returned
// close function is called; with Format set each file is imported whole
// and its ImportReport written to report.
func (s Source) Open(paths []string, report io.Writer) (trace.Stream, func(), error) {
	return s.open(func(p string) (io.ReadCloser, error) { return os.Open(p) }, paths, report)
}

// open is Open over an arbitrary file opener.
func (s Source) open(openFile func(string) (io.ReadCloser, error), paths []string, report io.Writer) (trace.Stream, func(), error) {
	var (
		streams []trace.Stream
		files   []io.Closer
	)
	closeAll := func() {
		for _, f := range files {
			f.Close()
		}
	}
	for _, p := range paths {
		f, err := openFile(p)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		files = append(files, f)
		st, err := s.stream(f, report)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("%s: %w", p, err)
		}
		streams = append(streams, st)
	}
	return trace.Merge(streams...), closeAll, nil
}

// stream decodes one opened file: natively, or through the importer.
func (s Source) stream(f io.Reader, report io.Writer) (trace.Stream, error) {
	if s.Format == "" {
		return trace.NewAutoReader(f)
	}
	recs, rep, err := s.Import(f)
	if err != nil {
		return nil, err
	}
	if _, err := io.WriteString(report, rep.String()); err != nil {
		return nil, err
	}
	return trace.NewSliceStream(recs), nil
}
