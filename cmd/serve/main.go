// Command serve runs the reproduction as a live service: the simulated
// Sprite server group on wall-clock time, a fleet of client agents driving
// open/read/write/close/getattr traffic at a target rate, and the metric
// registry exported live over HTTP in Prometheus text format.
//
// A 10-second soak with 64 agents at 200 requests/second:
//
//	serve -clients 64 -rate 200 -duration 10s
//
// Serve until SIGINT, scraping metrics from another terminal:
//
//	serve -clients 16 -rate 50 -listen 127.0.0.1:9100
//	curl http://127.0.0.1:9100/metrics
//
// Replay a captured trace's shape instead of generated load, over the TCP
// transport:
//
//	serve -clients 8 -rate 100 -duration 30s -trace trace1.srv0 -transport tcp
//
// The run ends with a per-verb latency/throughput report (wall-clock
// p50/p95/p99).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"spritefs/internal/live"
	"spritefs/internal/prof"
	"spritefs/internal/shutdown"
	"spritefs/internal/trace"
	"spritefs/internal/traceio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// validTransports lists the -transport values, flagScope-style: the flag
// check fails fast on anything else instead of silently defaulting.
var validTransports = []string{"inproc", "tcp"}

// validateFlags rejects contradictory or out-of-range flag combinations
// before anything is built (the cmd/experiments flagScope discipline).
func validateFlags(clients int, rate float64, duration, deadline time.Duration, transport string) error {
	if clients < 1 {
		return fmt.Errorf("-clients must be at least 1 (got %d)", clients)
	}
	// Written so that NaN fails it too; flag.Float64 parses "nan" and "inf".
	if !(rate > 0) || math.IsInf(rate, 1) {
		return fmt.Errorf("-rate must be positive and finite (got %g)", rate)
	}
	if duration < 0 {
		return fmt.Errorf("-duration must be non-negative (0 = run until SIGINT, got %v)", duration)
	}
	if deadline <= 0 {
		return fmt.Errorf("-deadline must be positive (got %v)", deadline)
	}
	known := false
	for _, t := range validTransports {
		if transport == t {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown -transport %q (want %s)", transport, strings.Join(validTransports, " or "))
	}
	return nil
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		clients   = fs.Int("clients", 8, "client agents driving load")
		rate      = fs.Float64("rate", 50, "aggregate request rate (requests/second across the fleet)")
		duration  = fs.Duration("duration", 0, "soak length; 0 runs until SIGINT/SIGTERM")
		listen    = fs.String("listen", "127.0.0.1:0", "HTTP listen address for /metrics and /healthz")
		tracePath = fs.String("trace", "", "replay this trace file's shape instead of generated load")
		transport = fs.String("transport", "inproc", "agent transport: inproc | tcp")
		deadline  = fs.Duration("deadline", 2*time.Second, "per-request deadline (retries included)")
		seed      = fs.Int64("seed", 1, "file-population and agent RNG seed")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the soak to this file")
		memProf   = fs.String("memprofile", "", "write a pprof heap profile (taken at drain) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateFlags(*clients, *rate, *duration, *deadline, *transport); err != nil {
		return err
	}

	var replayRecs []trace.Record
	if *tracePath != "" {
		s, closeTrace, err := traceio.Source{}.Open([]string{*tracePath}, nil)
		if err != nil {
			return err
		}
		replayRecs, err = trace.Collect(s)
		closeTrace()
		if err != nil {
			return fmt.Errorf("-trace %s: %w", *tracePath, err)
		}
		if len(replayRecs) == 0 {
			return fmt.Errorf("-trace %s holds no records", *tracePath)
		}
	}

	pp, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if serr := pp.Stop(); err == nil {
			err = serr
		}
	}()

	svc, err := live.NewService(live.ServiceConfig{Agents: *clients, Seed: *seed})
	if err != nil {
		return err
	}
	counters := live.NewCounters(*clients)
	counters.RegisterMetrics(svc.Cluster.Reg)
	if err := svc.Start(); err != nil {
		return err
	}
	defer svc.Drain()

	httpSrv, err := live.ServeHTTP(*listen, svc.WC, svc.Cluster.Reg)
	if err != nil {
		return err
	}
	defer httpSrv.Close()
	fmt.Fprintf(out, "serve: metrics on http://%s/metrics  (healthz: /healthz)\n", httpSrv.Addr())

	fleet := live.NewFleet(live.FleetConfig{
		Agents:   *clients,
		Rate:     *rate,
		Deadline: *deadline,
		Seed:     *seed,
		Replay:   replayRecs,
	}, svc, counters)
	var tcpSrv *live.TCPServer
	if *transport == "tcp" {
		d := live.NewDispatcher(svc.WC, svc.Exec)
		d.OnRetry(counters.Retry)
		tcpSrv, err = live.ServeTCP("127.0.0.1:0", d)
		if err != nil {
			return err
		}
		defer tcpSrv.Close()
		addr := tcpSrv.Addr()
		fmt.Fprintf(out, "serve: rpc on tcp://%s\n", addr)
		fleet.DialVia(func(int) (live.Transport, error) { return live.DialTCP(addr) })
	}

	mode := "generated"
	if len(replayRecs) > 0 {
		mode = fmt.Sprintf("replay of %d records", len(replayRecs))
	}
	fmt.Fprintf(out, "serve: %d agents, %.0f req/s (%s load, %s transport)\n",
		*clients, *rate, mode, *transport)

	start := time.Now()
	if err := fleet.Start(); err != nil {
		return err
	}

	// Graceful drain: a signal or the -duration timer ends the soak; the
	// fleet finishes in-flight requests, the report prints, and the
	// deferred profile stop still runs (a -cpuprofile of an interrupted
	// soak stays loadable).
	sig, stopSig := shutdown.Notify()
	defer stopSig()
	var timerC <-chan time.Time
	if *duration > 0 {
		t := time.NewTimer(*duration)
		defer t.Stop()
		timerC = t.C
	}
	select {
	case <-timerC:
	case s := <-sig:
		fmt.Fprintf(out, "serve: %v — draining\n", s)
	}
	fleet.Stop()
	elapsed := time.Since(start)

	rep := live.BuildReport(counters, elapsed)
	fmt.Fprintln(out, rep.Table())

	httpSrv.Close()
	if tcpSrv != nil {
		tcpSrv.Close()
	}
	svc.Drain()
	return nil
}
