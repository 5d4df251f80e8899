package cluster

import (
	"spritefs/internal/client"
	"spritefs/internal/faults"
	"spritefs/internal/metrics"
	"spritefs/internal/netsim"
	"spritefs/internal/server"
	"spritefs/internal/sim"
)

// RegisterComponents registers a component stack into one registry: the
// simulator, the network, the server population and the injector, and the
// client population over *clients when clients is not nil. The client
// columns read the live slice, so a workstation AddClient brings up later
// joins them without registering anything. NewSystem calls it for its own
// registry, and the scale engine once per shard into its engine-wide
// registry, so any run exposes the identical metric families for Report
// projections to read.
//
// The simulation core's scheduler gauges (event-queue depth, event-pool
// occupancy, armed recurring timers) register alongside, so profiling
// runs can watch scheduler pressure next to the model metrics.
func RegisterComponents(r *metrics.Registry, sm *sim.Sim, clients *[]*client.Client, servers []*server.Server, net *netsim.Network, inj *faults.Injector) {
	r.Int(metrics.Desc{Name: "spritefs_sim_events_pending", Unit: "events",
		Help: "Events currently scheduled on the simulator (one-shot events plus armed tickers).",
		Kind: metrics.Gauge},
		nil, func() int64 { return int64(sm.Pending()) })
	r.Int(metrics.Desc{Name: "spritefs_sim_event_pool_free", Unit: "events",
		Help: "Recycled event arena slots awaiting reuse (fired one-shot events' and stopped tickers'); the steady-state allocation-free scheduler draws from this pool.",
		Kind: metrics.Gauge},
		nil, func() int64 { return int64(sm.EventPoolFree()) })
	// The family keeps the name it got when recurring timers lived on a
	// timer wheel: every golden dump and benchmark digest carries it.
	r.Int(metrics.Desc{Name: "spritefs_sim_wheel_timers", Unit: "timers",
		Help: "Armed recurring timers (periodic daemons created via Every) in the event queue; the name predates the heap.",
		Kind: metrics.Gauge},
		nil, func() int64 { return int64(sm.WheelTimers()) })
	net.RegisterMetrics(r)
	server.RegisterMetrics(r, servers)
	if clients != nil {
		client.RegisterMetrics(r, clients)
	}
	if inj != nil {
		inj.RegisterMetrics(r)
	}
}

// Registry returns the central metric registry behind this view: the one
// the Cluster (replay's included) populated at construction time.
func (m *Metrics) Registry() *metrics.Registry { return m.Reg }
