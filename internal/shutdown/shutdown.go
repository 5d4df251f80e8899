// Package shutdown is the shared signal-termination path for the
// command-line tools. Long simulations and live serving both need SIGINT /
// SIGTERM to mean "finish cleanly": flush profiles, write the partial
// metrics dump, print the report — not vanish mid-write.
//
// Two shapes are provided. Notify hands the signal channel to a command
// that drains itself (cmd/serve's soak loop selects on it). Guard is for
// commands whose main path is one long blocking computation (cmd/replay,
// cmd/experiments): registered cleanups run on the first signal, then the
// process exits with the conventional 128+signal status.
package shutdown

import (
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// Notify returns a channel that receives on SIGINT/SIGTERM and a stop
// function that uninstalls the handler and then closes the channel, so a
// goroutine waiting on it is released. The channel is buffered so a signal
// arriving before the caller selects is not lost. Stop may be called more
// than once.
func Notify() (<-chan os.Signal, func()) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	var once sync.Once
	return ch, func() {
		once.Do(func() {
			signal.Stop(ch)
			close(ch)
		})
	}
}

// Guard runs registered cleanups when the process is signalled. Cleanups
// run newest-first (like defers) in a dedicated goroutine while the main
// computation is still blocked wherever the signal caught it, so they must
// only touch state that is safe to read concurrently — profile flushing
// (prof.Session.Stop) and snapshot writes qualify; in-progress simulator
// state does not. After the cleanups the process exits 128+signum.
type Guard struct {
	mu       sync.Mutex
	cleanups []func()
	stop     func()
}

// NewGuard installs the handler. Pair with Close on the normal exit path.
func NewGuard() *Guard {
	g := &Guard{}
	ch, stop := Notify()
	g.stop = stop
	go func() {
		sig, ok := <-ch
		if !ok {
			return
		}
		g.mu.Lock()
		cleanups := g.cleanups
		g.cleanups = nil
		g.mu.Unlock()
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
		code := 128 + int(syscall.SIGINT)
		if s, isSys := sig.(syscall.Signal); isSys {
			code = 128 + int(s)
		}
		os.Exit(code)
	}()
	return g
}

// Add registers a cleanup to run if the process is signalled. Returns the
// guard for chaining.
func (g *Guard) Add(fn func()) *Guard {
	g.mu.Lock()
	g.cleanups = append(g.cleanups, fn)
	g.mu.Unlock()
	return g
}

// Close uninstalls the signal handler without running cleanups — the
// normal exit path's own defers take over from here.
func (g *Guard) Close() {
	g.mu.Lock()
	g.cleanups = nil
	g.mu.Unlock()
	g.stop()
}
