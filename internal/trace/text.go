package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Text codec: a tab-separated, line-oriented rendering of the binary
// format, for debugging, grepping and interoperability with external
// tooling (awk, gnuplot). One record per line:
//
//	time_ns  kind  flags  server  client  user  proc  file  handle  offset  length  size
//
// The first line is a header beginning with '#'. Fields are decimal except
// file and handle, which are hex.

// textHeader identifies a text-format trace. Version-1 streams use the
// bare header (backward compatible); higher versions append "\tv<N>".
const textHeader = "#sprtrc\ttime_ns\tkind\tflags\tserver\tclient\tuser\tproc\tfile\thandle\toffset\tlength\tsize"

// TextWriter encodes records as text lines.
type TextWriter struct {
	w   *bufio.Writer
	err error
}

// NewTextWriter writes the version-1 header line and returns a text encoder.
func NewTextWriter(w io.Writer) (*TextWriter, error) {
	return NewTextWriterVersion(w, version)
}

// NewTextWriterVersion is NewTextWriter with an explicit header version in
// [1, MaxVersion]. Versions above 1 append a "v<N>" column to the header
// line; the record lines are identical across versions.
func NewTextWriterVersion(w io.Writer, ver uint16) (*TextWriter, error) {
	if ver < 1 || ver > MaxVersion {
		return nil, fmt.Errorf("trace: cannot write version %d (supported: 1..%d)", ver, MaxVersion)
	}
	hdr := textHeader
	if ver > 1 {
		hdr += fmt.Sprintf("\tv%d", ver)
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.WriteString(hdr + "\n"); err != nil {
		return nil, fmt.Errorf("trace: writing text header: %w", err)
	}
	return &TextWriter{w: bw}, nil
}

// Write appends one record as a line. Errors are sticky.
func (t *TextWriter) Write(r *Record) error {
	if t.err != nil {
		return t.err
	}
	_, err := fmt.Fprintf(t.w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%x\t%x\t%d\t%d\t%d\n",
		r.Time.Nanoseconds(), r.Kind, r.Flags, r.Server, r.Client, r.User, r.Proc,
		r.File, r.Handle, r.Offset, r.Length, r.Size)
	if err != nil {
		t.err = fmt.Errorf("trace: writing text record: %w", err)
	}
	return t.err
}

// Flush flushes buffered output.
func (t *TextWriter) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// kindByName inverts the Kind names for parsing.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, int(kindMax))
	for k := Kind(1); k < kindMax; k++ {
		m[k.String()] = k
	}
	return m
}()

// TextReader decodes text-format traces. It implements Stream.
type TextReader struct {
	s    *bufio.Scanner
	ver  uint16
	line int
}

// NewTextReader validates the header and returns a reader.
func NewTextReader(r io.Reader) (*TextReader, error) {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !s.Scan() {
		if err := s.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty text trace")
	}
	if !strings.HasPrefix(s.Text(), "#sprtrc") {
		return nil, fmt.Errorf("trace: not a text trace (header %q)", s.Text())
	}
	ver := version
	fields := strings.Split(strings.TrimRight(s.Text(), "\n"), "\t")
	if last := fields[len(fields)-1]; len(last) > 1 && last[0] == 'v' {
		v, err := strconv.ParseUint(last[1:], 10, 16)
		if err != nil || v < 1 || uint16(v) > MaxVersion {
			return nil, fmt.Errorf("trace: unsupported text-trace version %q", last)
		}
		ver = uint16(v)
	}
	return &TextReader{s: s, ver: ver, line: 1}, nil
}

// Version returns the header version declared by the stream.
func (t *TextReader) Version() uint16 { return t.ver }

// Next returns the next record or io.EOF.
func (t *TextReader) Next() (Record, error) {
	for {
		if !t.s.Scan() {
			if err := t.s.Err(); err != nil {
				return Record{}, err
			}
			return Record{}, io.EOF
		}
		t.line++
		line := strings.TrimSpace(t.s.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, err := parseTextRecord(line)
		if err != nil {
			return Record{}, fmt.Errorf("trace: line %d: %w", t.line, err)
		}
		return rec, nil
	}
}

func parseTextRecord(line string) (Record, error) {
	fields := strings.Split(line, "\t")
	if len(fields) != 12 {
		return Record{}, fmt.Errorf("want 12 fields, got %d", len(fields))
	}
	var rec Record
	ns, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("time: %w", err)
	}
	rec.Time = time.Duration(ns)
	kind, ok := kindByName[fields[1]]
	if !ok {
		return Record{}, fmt.Errorf("unknown kind %q", fields[1])
	}
	rec.Kind = kind
	flags, err := strconv.ParseUint(fields[2], 10, 8)
	if err != nil {
		return Record{}, fmt.Errorf("flags: %w", err)
	}
	rec.Flags = uint8(flags)
	ints := [6]struct {
		idx  int
		bits int
		dst  func(int64)
	}{
		{3, 16, func(v int64) { rec.Server = int16(v) }},
		{4, 32, func(v int64) { rec.Client = int32(v) }},
		{5, 32, func(v int64) { rec.User = int32(v) }},
		{6, 32, func(v int64) { rec.Proc = int32(v) }},
		{9, 64, func(v int64) { rec.Offset = v }},
		{10, 64, func(v int64) { rec.Length = v }},
	}
	for _, f := range ints {
		v, err := strconv.ParseInt(fields[f.idx], 10, f.bits)
		if err != nil {
			return Record{}, fmt.Errorf("field %d: %w", f.idx, err)
		}
		f.dst(v)
	}
	if rec.File, err = strconv.ParseUint(fields[7], 16, 64); err != nil {
		return Record{}, fmt.Errorf("file: %w", err)
	}
	if rec.Handle, err = strconv.ParseUint(fields[8], 16, 64); err != nil {
		return Record{}, fmt.Errorf("handle: %w", err)
	}
	if rec.Size, err = strconv.ParseInt(fields[11], 10, 64); err != nil {
		return Record{}, fmt.Errorf("size: %w", err)
	}
	return rec, nil
}
