package live

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"spritefs/internal/client"
)

// Verb enumerates the file-service operations the live frontend carries —
// the kernel-call surface the paper's traces logged, minus the process
// machinery.
type Verb uint8

// RPC verbs. The numbering is part of the TCP codec; append only.
const (
	VerbOpen Verb = iota
	VerbRead
	VerbWrite
	VerbClose
	VerbGetattr
	NumVerbs
)

var verbNames = [NumVerbs]string{"open", "read", "write", "close", "getattr"}

// String returns the verb's lower-case name.
func (v Verb) String() string {
	if v < NumVerbs {
		return verbNames[v]
	}
	return fmt.Sprintf("verb(%d)", uint8(v))
}

// Request is one agent operation against the server group.
type Request struct {
	Verb   Verb
	Agent  int32  // fleet agent id; the dispatcher maps it to a workstation
	File   uint64 // open/getattr: target file
	Handle uint64 // read/write/close: open-instance handle
	Offset int64  // read/write: byte offset
	Length int64  // read/write: byte count
	Write  bool   // open: request write mode
}

// Response is the reply to one Request.
type Response struct {
	Err       string        // empty on success
	Retryable bool          // the error class worth backing off and retrying (server down)
	Handle    uint64        // open: the new handle
	N         int64         // read: bytes actually read
	Size      int64         // open/getattr: file size
	SimLat    time.Duration // simulated service time charged by the model
}

// OK reports whether the request succeeded.
func (r *Response) OK() bool { return r.Err == "" }

// ErrDeadline is returned when a request's deadline expires before its
// reply is delivered. The operation may still have executed at the server
// — exactly the at-most-once ambiguity a real RPC timeout has.
var ErrDeadline = errors.New("live: request deadline exceeded")

// Transport carries requests from an agent to the server group: the
// in-process *Dispatcher, or a *TCPClient speaking the wire codec to a
// *TCPServer that fronts the same dispatcher.
type Transport interface {
	// Do executes one request with the given deadline.
	Do(req Request, deadline time.Duration) (Response, error)
	// Close releases the transport.
	Close() error
}

// Retry policy: the same bounded doubling backoff the Sprite recovery
// protocol applies against a down server (client.RecoveryBackoff /
// client.RecoveryRetryLimit, introduced with internal/faults), rescaled
// for an interactive request path — a full cycle waits tens of
// milliseconds, not tens of seconds.
const (
	// RetryBackoff is the initial retry delay; it doubles per attempt.
	RetryBackoff = client.RecoveryBackoff / 16 // 6.25ms
	// RetryLimit caps retry attempts per request.
	RetryLimit = client.RecoveryRetryLimit / 2 // 4
)

// Dispatcher is the in-process transport: it marshals requests onto the
// WallClock loop, where exec runs them against the cluster, and delivers
// each reply after the simulated service time has elapsed on the wall —
// so agents measure latencies with the model's service times, real
// queueing, and real scheduling in them.
type Dispatcher struct {
	wc   *WallClock
	exec func(*Request) Response // runs on the dispatcher loop
	// onRetry, when set, counts backoff retries (the fleet's counter).
	onRetry func()
}

// NewDispatcher builds the in-process transport. exec is invoked on the
// WallClock loop and must only touch loop-owned state.
func NewDispatcher(wc *WallClock, exec func(*Request) Response) *Dispatcher {
	return &Dispatcher{wc: wc, exec: exec}
}

// OnRetry installs a callback counting backoff retries. Set before serving
// traffic; fn must be safe for concurrent calls.
func (d *Dispatcher) OnRetry(fn func()) { d.onRetry = fn }

// Do executes req. Retryable failures (a crashed server mid-recovery) are
// retried with bounded doubling backoff inside the deadline; a reply that
// does not arrive in time returns ErrDeadline.
func (d *Dispatcher) Do(req Request, deadline time.Duration) (Response, error) {
	start := time.Now()
	backoff := RetryBackoff
	for attempt := 0; ; attempt++ {
		resp, err := d.once(&req, deadline-time.Since(start))
		if err != nil {
			return resp, err
		}
		if resp.OK() || !resp.Retryable || attempt >= RetryLimit {
			return resp, nil
		}
		if time.Since(start)+backoff >= deadline {
			return resp, nil // no room left to retry; surface the error reply
		}
		if d.onRetry != nil {
			d.onRetry()
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// call is one attempt's record: everything the caller, the loop and the
// deadline timer share about it. Records are pooled, and the state word
// settles who may put one back — whoever can prove it is the last to hold it.
//
//   - Delivered: the loop won the state with the reply in resp and signalled
//     done last of all. The caller recycles the record if it can still stop
//     the timer; if the timer has fired, its signal may be mid-send in
//     another goroutine, and the record is left to the collector.
//   - Abandoned: the timer's signal woke the caller, which won the state and
//     returns ErrDeadline. The timer has nothing left to do and the caller
//     touches the record no more; the loop recycles it when deliver runs and
//     loses the state. The reply is dropped there — it reaches no one.
//   - A clock that stops in between never runs deliver; the record is left to
//     the collector with the rest of the clock's queue.
type call struct {
	d     *Dispatcher
	req   Request
	resp  Response
	state atomic.Uint32
	// done carries wake-up signals, not outcomes: the loop and the timer
	// each send at most one per attempt, without blocking, and the caller
	// reads the outcome from state.
	done  chan struct{}
	timer *time.Timer // the deadline, on the wall clock: signals when it fires; made at first use
	// Bound once, when the record is made: an attempt makes no closure.
	run, deliver func()
}

// call.state: an attempt starts waiting and ends by exactly one CAS.
const (
	callWaiting uint32 = iota
	callDelivered
	callAbandoned
)

// calls holds idle records. It starts empty and grows with the number of
// attempts in flight at once.
var calls sync.Pool

func newCall() *call {
	c := &call{done: make(chan struct{}, 1)}
	c.run = func() {
		c.resp = c.d.exec(&c.req)
		if c.resp.SimLat > 0 {
			c.d.wc.Sim().After(c.resp.SimLat, c.deliver)
		} else {
			c.deliver()
		}
	}
	c.deliver = func() {
		if c.state.CompareAndSwap(callWaiting, callDelivered) {
			c.signal()
		} else {
			calls.Put(c)
		}
	}
	return c
}

// signal wakes the caller. A signal already waiting there will do as well.
func (c *call) signal() {
	select {
	case c.done <- struct{}{}:
	default:
	}
}

// once issues a single attempt. The deadline is the caller's own timer, so
// it holds however far behind — or wedged — the loop is.
func (d *Dispatcher) once(req *Request, deadline time.Duration) (Response, error) {
	if deadline <= 0 {
		return Response{}, ErrDeadline
	}
	c, _ := calls.Get().(*call)
	if c == nil {
		c = newCall()
	}
	c.d, c.req = d, *req
	c.state.Store(callWaiting)
	if !d.wc.Go(c.run) {
		calls.Put(c)
		return Response{}, ErrStopped
	}
	if c.timer == nil {
		c.timer = time.AfterFunc(deadline, c.signal)
	} else {
		c.timer.Reset(deadline)
	}
	<-c.done
	if c.state.CompareAndSwap(callWaiting, callAbandoned) {
		return Response{}, ErrDeadline
	}
	resp := c.resp
	if c.timer.Stop() {
		calls.Put(c)
	}
	return resp, nil
}

// Close implements Transport; the in-process dispatcher has nothing to
// release.
func (d *Dispatcher) Close() error { return nil }

var _ Transport = (*Dispatcher)(nil)
