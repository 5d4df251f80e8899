package stats

import (
	"strings"
	"testing"
)

func TestTableString(t *testing.T) {
	tb := NewTable("Demo", "row", "a", "b")
	tb.AddRow("one", "1", "22")
	tb.AddRow("two", "3.2", "4.0")
	out := tb.String()
	if !strings.HasPrefix(out, "Demo\n") {
		t.Errorf("missing title:\n%s", out)
	}
	for _, want := range []string{"row", "one", "22", "3.2", "4.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
}

func TestTableTSV(t *testing.T) {
	tb := NewTable("Ignored title", "col1", "col2")
	tb.AddRow("x", "1")
	tb.AddRow("y", "2")
	got := tb.TSV()
	want := "col1\tcol2\nx\t1\ny\t2\n"
	if got != want {
		t.Errorf("TSV:\n got %q\nwant %q", got, want)
	}
	// TSV output must not carry the title or the rule line — it is the
	// machine-diffable form the sweep invariance check compares.
	if strings.Contains(got, "Ignored") || strings.Contains(got, "---") {
		t.Errorf("TSV leaked presentation elements: %q", got)
	}
}

func TestTableTSVEmpty(t *testing.T) {
	if got := (&Table{}).TSV(); got != "" {
		t.Errorf("empty table TSV = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X", "Metric", "Paper", "Measured")
	tb.AddRow("throughput", "8.0", "7.9")
	tb.AddRow("miss ratio", "41.4", "40.2")
	out := tb.String()
	for _, want := range []string{"Table X", "Metric", "throughput", "41.4", "40.2"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", tb.NumRows())
	}
}
