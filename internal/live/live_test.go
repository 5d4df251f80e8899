package live

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"spritefs/internal/metrics"
)

// TestLiveSoakShort is the race-detector mini-soak: a real 2-second run of
// the full live stack — service on the wall clock, 8 agents over the
// in-process transport, live /metrics scrapes from a separate goroutine —
// asserting traffic flowed, nothing errored, and the report carries
// non-zero percentiles. `go test -race -run TestLiveSoakShort` is the
// concurrency gate for the whole package.
func TestLiveSoakShort(t *testing.T) {
	svc, err := NewService(ServiceConfig{Agents: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	counters := NewCounters(8)
	counters.RegisterMetrics(svc.Cluster.Reg)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()

	httpSrv, err := ServeHTTP("127.0.0.1:0", svc.WC, svc.Cluster.Reg)
	if err != nil {
		t.Fatal(err)
	}
	defer httpSrv.Close()

	fleet := NewFleet(FleetConfig{
		Agents: 8, Rate: 150, Deadline: 2 * time.Second, Seed: 1,
	}, svc, counters)
	if err := fleet.Start(); err != nil {
		t.Fatal(err)
	}

	// Scrape mid-run: the exporter must serve a consistent snapshot while
	// the cluster is under load.
	time.Sleep(1 * time.Second)
	body, ctype := scrape(t, "http://"+httpSrv.Addr()+"/metrics")
	if ctype != metrics.PrometheusContentType {
		t.Errorf("scrape Content-Type = %q, want %q", ctype, metrics.PrometheusContentType)
	}
	for _, want := range []string{"spritefs_live_agents 8", "spritefs_live_requests_total{verb=\"open\"}"} {
		if !strings.Contains(body, want) {
			t.Errorf("mid-run scrape missing %q", want)
		}
	}
	if hb, _ := scrape(t, "http://"+httpSrv.Addr()+"/healthz"); hb != "ok\n" {
		t.Errorf("healthz = %q, want ok", hb)
	}

	time.Sleep(1 * time.Second)
	fleet.Stop()

	rep := BuildReport(counters, 2*time.Second)
	if rep.Requests < 20 {
		t.Fatalf("soak completed only %d requests", rep.Requests)
	}
	if rep.Errors != 0 {
		t.Errorf("soak saw %d errors:\n%s", rep.Errors, rep.Table())
	}
	var sawLatency bool
	for _, v := range rep.PerVerb {
		if v.Verb == VerbGetattr {
			continue // zero simulated cost; wall latency may round to ~0
		}
		if v.Count > 0 && (v.P50 <= 0 || v.P95 <= 0 || v.P99 <= 0) {
			t.Errorf("verb %s: zero percentile in %+v", v.Verb, v)
		}
		if v.P50 > 0 {
			sawLatency = true
		}
	}
	if !sawLatency {
		t.Error("no verb recorded non-zero latency percentiles")
	}
}

// TestDrainRejectsTraffic checks the shutdown path: after Drain, requests
// fail with ErrStopped and /metrics answers 503.
func TestDrainRejectsTraffic(t *testing.T) {
	svc, err := NewService(ServiceConfig{Agents: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	httpSrv, err := ServeHTTP("127.0.0.1:0", svc.WC, svc.Cluster.Reg)
	if err != nil {
		t.Fatal(err)
	}
	defer httpSrv.Close()

	d := NewDispatcher(svc.WC, svc.Exec)
	file := svc.AgentFiles(0)[0]
	if resp, err := d.Do(Request{Verb: VerbOpen, File: file.ID}, time.Second); err != nil || !resp.OK() {
		t.Fatalf("open before drain: err=%v resp=%+v", err, resp)
	}

	svc.Drain()
	if _, err := d.Do(Request{Verb: VerbGetattr, File: file.ID}, time.Second); err != ErrStopped {
		t.Fatalf("request after drain: err=%v, want ErrStopped", err)
	}
	resp, err := http.Get("http://" + httpSrv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/metrics after drain: status %d, want 503", resp.StatusCode)
	}
}

// TestDrainTwice holds Drain to its comment: the clock may already be
// stopped when it is called — serve's deferred Drain after its explicit
// one, a second signal — and that is not a panic.
func TestDrainTwice(t *testing.T) {
	svc, err := NewService(ServiceConfig{Agents: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	svc.Drain()
	svc.Drain()
	if err := svc.WC.Call(func() {}); err != ErrStopped {
		t.Fatalf("Call after two Drains: err=%v, want ErrStopped", err)
	}
}

func scrape(t *testing.T, url string) (body, contentType string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return string(b), resp.Header.Get("Content-Type")
}
