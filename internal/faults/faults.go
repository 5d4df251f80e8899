package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"spritefs/internal/client"
	"spritefs/internal/netsim"
	"spritefs/internal/server"
	"spritefs/internal/sim"
)

// System is the slice of a simulated cluster the injector needs;
// cluster.Cluster satisfies it. Workstations is consulted at event-fire
// time, not at attach time, because trace replay adds clients to its
// cluster lazily as trace records mention them; it must return a
// deterministic order.
type System interface {
	Clock() *sim.Sim
	Wire() *netsim.Network
	FileServers() []*server.Server
	Workstations() []*client.Client
}

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// ServerCrash crashes file server Target at At: volatile state (open
	// tables, sharing decisions, un-synced cache blocks) is discarded, the
	// server restarts under a new epoch, and RPCs to it stall for Duration
	// (the outage window). Clients recover per the Sprite protocol.
	ServerCrash Kind = iota
	// ClientCrash crashes the workstation whose id is Target: its cache,
	// handles and bookkeeping vanish and every server disconnects it.
	ClientCrash
	// Partition cuts workstation Target off: its RPCs (to any server)
	// stall until the partition heals Duration later.
	Partition
	// Delay adds Extra latency to every RPC issued during [At, At+Duration).
	Delay
	// Drop loses every Every-th RPC in [At, At+Duration); each loss costs
	// one retransmit charged at the Extra retry timeout.
	Drop
)

var kindNames = [...]string{"server-crash", "client-crash", "partition", "delay", "drop"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Event is one scheduled fault.
type Event struct {
	At       time.Duration
	Kind     Kind
	Target   int           // server index (ServerCrash) or workstation id
	Duration time.Duration // outage / partition / window length
	Extra    time.Duration // Delay: added latency; Drop: retry timeout
	Every    int           // Drop: lose every Every-th RPC
}

// String renders the event in the parseable schedule syntax.
func (e Event) String() string {
	var b strings.Builder
	b.WriteString(e.Kind.String())
	switch e.Kind {
	case ServerCrash, ClientCrash, Partition:
		fmt.Fprintf(&b, ":%d", e.Target)
	}
	fmt.Fprintf(&b, "@%s", e.At)
	switch e.Kind {
	case ClientCrash:
	case Drop:
		fmt.Fprintf(&b, "/%s/%s/%d", e.Duration, e.Extra, e.Every)
	case Delay:
		fmt.Fprintf(&b, "/%s/%s", e.Duration, e.Extra)
	default:
		fmt.Fprintf(&b, "/%s", e.Duration)
	}
	return b.String()
}

// Schedule is a fault schedule: events ordered by firing time.
type Schedule struct {
	Events []Event
}

// Empty reports whether the schedule injects nothing.
func (s Schedule) Empty() bool { return len(s.Events) == 0 }

// String renders the schedule in the syntax Parse accepts.
func (s Schedule) String() string {
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// sortEvents orders by firing time, stably, so schedules built from
// unordered sources inject identically.
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
}

// Parse reads a comma-separated fault schedule, e.g.
//
//	server-crash:0@10m/30s,partition:3@5m/20s,client-crash:2@15m,
//	delay@0s/1h/20ms,drop@0s/1h/500ms/2
//
// Grammar per event: kind[:target]@at[/duration[/extra[/every]]], with all
// times in Go duration syntax. server-crash, client-crash and partition
// require a target; delay and drop apply to all traffic.
func Parse(text string) (Schedule, error) {
	var s Schedule
	for _, raw := range strings.Split(text, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		ev, err := parseEvent(raw)
		if err != nil {
			return Schedule{}, fmt.Errorf("faults: %q: %w", raw, err)
		}
		s.Events = append(s.Events, ev)
	}
	sortEvents(s.Events)
	return s, nil
}

func parseEvent(raw string) (Event, error) {
	head, tail, ok := strings.Cut(raw, "@")
	if !ok {
		return Event{}, fmt.Errorf("missing @time")
	}
	kindStr, targetStr, hasTarget := strings.Cut(head, ":")
	var ev Event
	kind := -1
	for i, n := range kindNames {
		if kindStr == n {
			kind = i
		}
	}
	if kind < 0 {
		return Event{}, fmt.Errorf("unknown fault kind %q", kindStr)
	}
	ev.Kind = Kind(kind)

	needsTarget := ev.Kind == ServerCrash || ev.Kind == ClientCrash || ev.Kind == Partition
	if needsTarget != hasTarget {
		if needsTarget {
			return Event{}, fmt.Errorf("%s requires a :target", ev.Kind)
		}
		return Event{}, fmt.Errorf("%s takes no :target", ev.Kind)
	}
	if hasTarget {
		t, err := strconv.Atoi(targetStr)
		if err != nil || t < 0 {
			return Event{}, fmt.Errorf("bad target %q", targetStr)
		}
		ev.Target = t
	}

	parts := strings.Split(tail, "/")
	want := map[Kind]int{ServerCrash: 2, ClientCrash: 1, Partition: 2, Delay: 3, Drop: 4}[ev.Kind]
	if len(parts) != want {
		return Event{}, fmt.Errorf("%s wants %d time field(s) after @, got %d", ev.Kind, want, len(parts))
	}
	durs := make([]time.Duration, 0, 3)
	for i, p := range parts {
		if ev.Kind == Drop && i == 3 {
			break // last field is the integer drop period
		}
		d, err := time.ParseDuration(p)
		if err != nil || d < 0 {
			return Event{}, fmt.Errorf("bad duration %q", p)
		}
		durs = append(durs, d)
	}
	ev.At = durs[0]
	if len(durs) > 1 {
		ev.Duration = durs[1]
	}
	if len(durs) > 2 {
		ev.Extra = durs[2]
	}
	if ev.Kind == Drop {
		n, err := strconv.Atoi(parts[3])
		if err != nil || n < 1 {
			return Event{}, fmt.Errorf("bad drop period %q", parts[3])
		}
		ev.Every = n
	}
	return ev, nil
}

// Random generates a schedule of n events uniformly spread over
// (0, horizon), drawn deterministically from rng: crash, partition and
// perturbation mixes weighted toward the cases the paper's reliability
// discussion cares about (server crashes and their recovery). servers and
// clients bound the targets.
func Random(rng *sim.Rand, horizon time.Duration, n, servers, clients int) Schedule {
	if servers < 1 || clients < 1 || n < 1 || horizon <= time.Second {
		return Schedule{}
	}
	var s Schedule
	for i := 0; i < n; i++ {
		var ev Event
		ev.At = time.Second + time.Duration(rng.Int63n(int64(horizon-time.Second)))
		switch rng.Pick([]float64{0.35, 0.20, 0.25, 0.10, 0.10}) {
		case 0:
			ev.Kind = ServerCrash
			ev.Target = rng.Intn(servers)
			ev.Duration = 5*time.Second + time.Duration(rng.Int63n(int64(55*time.Second)))
		case 1:
			ev.Kind = ClientCrash
			ev.Target = rng.Intn(clients)
		case 2:
			ev.Kind = Partition
			ev.Target = rng.Intn(clients)
			ev.Duration = 5*time.Second + time.Duration(rng.Int63n(int64(40*time.Second)))
		case 3:
			ev.Kind = Delay
			ev.Duration = time.Minute + time.Duration(rng.Int63n(int64(4*time.Minute)))
			ev.Extra = 5*time.Millisecond + time.Duration(rng.Int63n(int64(45*time.Millisecond)))
		case 4:
			ev.Kind = Drop
			ev.Duration = time.Minute + time.Duration(rng.Int63n(int64(4*time.Minute)))
			ev.Extra = 200*time.Millisecond + time.Duration(rng.Int63n(int64(600*time.Millisecond)))
			ev.Every = 2 + rng.Intn(4)
		}
		s.Events = append(s.Events, ev)
	}
	sortEvents(s.Events)
	return s
}
