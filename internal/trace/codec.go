package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// errEOF is the stream-end sentinel; it is io.EOF so callers can compare
// against the standard value.
var errEOF = io.EOF

// Binary format: a fixed 8-byte header ("SPRTRC" + 2-byte version) followed
// by fixed-width little-endian records. Fixed width keeps the codec trivial
// and the traces seekable; a day-long trace is a few tens of megabytes.
const (
	magic      = "SPRTRC"
	version    = uint16(1)
	recordSize = 8 + 1 + 1 + 2 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 8 // = 64

	// MaxVersion is the newest header version this codec understands. The
	// record layout is identical across versions; version 2 marks streams
	// that were imported from a foreign format (or otherwise derived) by
	// internal/traceio, so that Merge can refuse to interleave them with
	// native captures whose timebases and ID spaces are unrelated.
	MaxVersion = uint16(2)
)

// Writer encodes records to an io.Writer in binary format.
type Writer struct {
	w   *bufio.Writer
	n   int64
	buf [recordSize]byte
	err error
}

// NewWriter returns a Writer that writes the version-1 file header
// immediately. Version 1 is the native-capture version; importers use
// NewWriterVersion to stamp derived streams.
func NewWriter(w io.Writer) (*Writer, error) {
	return NewWriterVersion(w, version)
}

// NewWriterVersion is NewWriter with an explicit header version in
// [1, MaxVersion]. The record layout is the same for every version; the
// header version only declares which lineage the stream belongs to.
func NewWriterVersion(w io.Writer, ver uint16) (*Writer, error) {
	if ver < 1 || ver > MaxVersion {
		return nil, fmt.Errorf("trace: cannot write version %d (supported: 1..%d)", ver, MaxVersion)
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	var hdr [8]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint16(hdr[6:], ver)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one record. Errors are sticky.
func (w *Writer) Write(r *Record) error {
	if w.err != nil {
		return w.err
	}
	b := w.buf[:]
	binary.LittleEndian.PutUint64(b[0:], uint64(r.Time))
	b[8] = byte(r.Kind)
	b[9] = r.Flags
	binary.LittleEndian.PutUint16(b[10:], uint16(r.Server))
	binary.LittleEndian.PutUint32(b[12:], uint32(r.Client))
	binary.LittleEndian.PutUint32(b[16:], uint32(r.User))
	binary.LittleEndian.PutUint32(b[20:], uint32(r.Proc))
	binary.LittleEndian.PutUint64(b[24:], r.File)
	binary.LittleEndian.PutUint64(b[32:], r.Handle)
	binary.LittleEndian.PutUint64(b[40:], uint64(r.Offset))
	binary.LittleEndian.PutUint64(b[48:], uint64(r.Length))
	binary.LittleEndian.PutUint64(b[56:], uint64(r.Size))
	if _, err := w.w.Write(b); err != nil {
		w.err = fmt.Errorf("trace: writing record: %w", err)
		return w.err
	}
	w.n++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() int64 { return w.n }

// Flush flushes buffered data to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.w.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Reader decodes a binary trace stream. It implements Stream.
type Reader struct {
	r   *bufio.Reader
	ver uint16
	buf [recordSize]byte
}

// NewReader validates the header and returns a record reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:6]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:6])
	}
	v := binary.LittleEndian.Uint16(hdr[6:])
	if v < 1 || v > MaxVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	return &Reader{r: br, ver: v}, nil
}

// Version returns the header version declared by the stream.
func (r *Reader) Version() uint16 { return r.ver }

// Next returns the next record, or io.EOF at end of stream. A truncated
// final record is reported as io.ErrUnexpectedEOF.
func (r *Reader) Next() (Record, error) {
	b := r.buf[:]
	if _, err := io.ReadFull(r.r, b); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("trace: reading record: %w", err)
	}
	rec := Record{
		Time:   time.Duration(binary.LittleEndian.Uint64(b[0:])),
		Kind:   Kind(b[8]),
		Flags:  b[9],
		Server: int16(binary.LittleEndian.Uint16(b[10:])),
		Client: int32(binary.LittleEndian.Uint32(b[12:])),
		User:   int32(binary.LittleEndian.Uint32(b[16:])),
		Proc:   int32(binary.LittleEndian.Uint32(b[20:])),
		File:   binary.LittleEndian.Uint64(b[24:]),
		Handle: binary.LittleEndian.Uint64(b[32:]),
		Offset: int64(binary.LittleEndian.Uint64(b[40:])),
		Length: int64(binary.LittleEndian.Uint64(b[48:])),
		Size:   int64(binary.LittleEndian.Uint64(b[56:])),
	}
	if !rec.Kind.Valid() {
		return Record{}, fmt.Errorf("trace: corrupt record kind %d", rec.Kind)
	}
	return rec, nil
}
