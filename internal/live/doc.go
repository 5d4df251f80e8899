// Package live is the real-time frontend: it runs the simulated Sprite
// cluster — servers, client caches, consistency, crash recovery — as an
// actual concurrent Go service on wall-clock time and serves load from a
// fleet of client agents over a small RPC layer.
//
// The design splits the world in two:
//
//   - One dispatcher goroutine owns the cluster and its *sim.Sim outright.
//     WallClock paces that simulator against the monotonic clock: events
//     fire when their virtual time arrives on the wall, and externally
//     submitted closures are marshalled onto the loop. Because every
//     cluster touch happens on this one goroutine, the existing
//     single-threaded stack runs unmodified — the actor model a
//     single-threaded server (or the Sprite kernel's event loop) uses.
//
//   - N agent goroutines drive open/read/write/close/getattr requests
//     through a Transport (in-process dispatch or a TCP codec) at a target
//     aggregate rate, with per-request deadlines and the same bounded
//     doubling backoff the Sprite recovery protocol uses against a down
//     server. Agents measure real wall-clock latency — queueing on the
//     dispatcher, Go scheduling, and the simulated service time, which the
//     dispatcher converts into real delay by scheduling each reply at
//     virtual-now + simulated-latency. The deadline is the caller's own
//     wall-clock timer, so it holds however far behind the loop is. A
//     caller may assume that a reply is its own request's and no earlier
//     than its service time, and that ErrDeadline or ErrStopped comes with
//     the zero Response; it may not assume that the operation did not run
//     — it may yet, but its reply is dropped on the loop and reaches no
//     one. (The records behind this are pooled; see call in rpc.go.)
//
// The existing internal/metrics registry is exported live over HTTP in
// Prometheus text format (plus /healthz), and the fleet registers new
// spritefs_live_ families for request counts and latency distributions.
package live
