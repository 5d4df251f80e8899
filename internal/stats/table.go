package stats

import (
	"fmt"
	"strings"
)

// Table renders paper-style plain-text tables: a title, a header row, and
// value rows, with columns padded to their widest cell. It is how
// cmd/experiments prints its paper-vs-measured reports.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns an empty table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row of pre-formatted cells. Short rows are padded with
// empty cells; long rows extend the column count.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// NumRows returns the number of value rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	ncol := len(t.Headers)
	for _, r := range t.rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	widths := make([]int, ncol)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(r []string) {
		for i := 0; i < ncol; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "%*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Headers) > 0 {
		line(t.Headers)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total-2))
		b.WriteByte('\n')
	}
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// TSV renders the table as tab-separated values (no title, no rule line):
// one header row, then one line per value row. The format is stable and
// machine-diffable, which is what the sweep driver's byte-identical
// aggregate reports are compared on.
func (t *Table) TSV() string {
	var b strings.Builder
	write := func(r []string) {
		b.WriteString(strings.Join(r, "\t"))
		b.WriteByte('\n')
	}
	if len(t.Headers) > 0 {
		write(t.Headers)
	}
	for _, r := range t.rows {
		write(r)
	}
	return b.String()
}
