package trace

import (
	"bufio"
	"fmt"
	"io"
)

// FileStream is a Stream decoded from a trace file: it also reports the
// header version the file declared.
type FileStream interface {
	Stream
	Versioned
}

// NewAutoReader opens a native trace of either encoding, sniffing text
// ('#' of the header line) versus binary ('S' of the SPRTRC magic) from
// the first byte. Every tool that reads a trace file goes through here,
// so a trace tracefmt rendered as text is accepted wherever the binary
// original is.
func NewAutoReader(r io.Reader) (FileStream, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	first, err := br.Peek(1)
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	var s FileStream
	if first[0] == '#' {
		s, err = NewTextReader(br)
	} else {
		s, err = NewReader(br)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}
