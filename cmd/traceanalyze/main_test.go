package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/trace"
	"spritefs/internal/workload"
)

// capture runs trace 1's community for a few simulated minutes and writes
// the per-server binary files tracegen would, plus a tracefmt-style text
// rendering of server 0's. It returns the binary paths, the text path,
// and the merged (scrubbed) records for independent expectations.
func capture(t *testing.T) (bin []string, text string, merged []trace.Record) {
	t.Helper()
	cfg := cluster.DefaultConfig(workload.TraceParams(1))
	cfg.SamplePeriod = 0
	cl := cluster.New(cfg)
	cl.Run(10 * time.Minute)
	dir := t.TempDir()
	for i, s := range cl.PerServerStreams() {
		recs, err := trace.Collect(s)
		if err != nil {
			t.Fatal(err)
		}
		var b, tx bytes.Buffer
		bw, err := trace.NewWriter(&b)
		if err != nil {
			t.Fatal(err)
		}
		tw, err := trace.NewTextWriter(&tx)
		if err != nil {
			t.Fatal(err)
		}
		for j := range recs {
			if err := bw.Write(&recs[j]); err != nil {
				t.Fatal(err)
			}
			if err := tw.Write(&recs[j]); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("trace1.srv%d", i))
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		bin = append(bin, path)
		if i == 0 {
			text = path + ".txt"
			if err := os.WriteFile(text, tx.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	merged, err := trace.Collect(trace.Merge(cl.PerServerStreams()...))
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) == 0 {
		t.Fatal("captured no records")
	}
	return bin, text, merged
}

func analyze(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

// table1 extracts a Table 1 row's value from the tool's output.
func table1(t *testing.T, out, metric string) string {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(metric) + `\s+(\S+)$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no %q row in:\n%s", metric, out)
	}
	return m[1]
}

func TestTextAndBinaryInputsAnalyzeIdentically(t *testing.T) {
	bin, text, _ := capture(t)
	want := analyze(t, append([]string{"-cdf"}, bin...)...)
	for _, title := range []string{"Table 1. Overall trace statistics", "Table 2. User activity", "Table 3. File access patterns",
		"Figures 1-4. Distribution checkpoints", "Table 10. Consistency actions", "Table 11. Stale data errors",
		"Table 12. Consistency overheads", "Section 4 detail", "t11.3s.migrated_opens_pct", "fig4.bytes\t"} {
		if !strings.Contains(want, title) {
			t.Errorf("output lacks %q", title)
		}
	}
	got := analyze(t, append([]string{"-cdf", text}, bin[1:]...)...)
	if got != want {
		t.Errorf("text rendering of server 0 analyses differently:\n--- text ---\n%s--- binary ---\n%s", got, want)
	}
}

func TestExcludeUsersDropsExactlyThoseUsers(t *testing.T) {
	bin, _, merged := capture(t)
	// Expectations straight from the records: who appears, who opens.
	opens := map[int32]int{}
	users := map[int32]bool{}
	for _, r := range merged {
		users[r.User] = true
		if r.Kind == trace.KindOpen {
			opens[r.User]++
		}
	}
	var drop []int32 // the two lowest-numbered users with opens
	totalOpens := 0
	for u, n := range opens {
		drop = append(drop, u)
		totalOpens += n
	}
	if len(drop) < 2 {
		t.Fatal("capture has fewer than two users with opens")
	}
	sort.Slice(drop, func(i, j int) bool { return drop[i] < drop[j] })
	drop = drop[:2]

	all := analyze(t, bin...)
	if got, want := table1(t, all, "Different users"), fmt.Sprint(len(users)); got != want {
		t.Errorf("users = %s, want %s", got, want)
	}
	if got, want := table1(t, all, "Open events"), fmt.Sprint(totalOpens); got != want {
		t.Errorf("opens = %s, want %s", got, want)
	}
	less := analyze(t, append([]string{"-exclude-users", fmt.Sprintf("%d, %d", drop[0], drop[1])}, bin...)...)
	if got, want := table1(t, less, "Different users"), fmt.Sprint(len(users)-2); got != want {
		t.Errorf("users after excluding %v = %s, want %s", drop, got, want)
	}
	if got, want := table1(t, less, "Open events"), fmt.Sprint(totalOpens-opens[drop[0]]-opens[drop[1]]); got != want {
		t.Errorf("opens after excluding %v = %s, want %s", drop, got, want)
	}
}

func TestBadInvocationsAreErrors(t *testing.T) {
	bin, _, _ := capture(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing file", []string{bin[0], filepath.Join(t.TempDir(), "nosuch")}, "nosuch"},
		{"no files", nil, "no trace files"},
		{"bad user id", []string{"-exclude-users", "3,x", bin[0]}, `bad user id "x"`},
		{"user id past int32", []string{"-exclude-users", "4294967299", bin[0]}, "-exclude-users"},
		{"negative user id", []string{"-exclude-users", "-5", bin[0]}, "-exclude-users"},
		{"not a trace", []string{os.Args[0]}, "trace:"},
		{"retired flag", []string{"-consistency", bin[0]}, "consistency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) error = %v, want one containing %q", tc.args, err, tc.want)
			}
			if out.Len() != 0 {
				t.Errorf("failed run printed %d bytes of tables", out.Len())
			}
		})
	}
}
