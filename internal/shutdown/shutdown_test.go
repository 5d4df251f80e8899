package shutdown

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestGuardCloseReleasesHandler pins that Close lets the guard's handler
// goroutine return instead of leaving it blocked on the signal channel.
func TestGuardCloseReleasesHandler(t *testing.T) {
	// The first Notify starts os/signal's own watcher goroutine, which
	// lives for the rest of the process; take the baseline after it.
	_, stop := Notify()
	stop()
	stop() // idempotent
	base := runtime.NumGoroutine()

	for i := 0; i < 3; i++ {
		NewGuard().Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after closing three guards, baseline %d: a handler is still blocked",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// guardChildEnv marks the re-executed test binary that plays the signalled
// process in TestGuardSignalRunsCleanupsAndExits.
const guardChildEnv = "SHUTDOWN_GUARD_CHILD"

// TestGuardSignalRunsCleanupsAndExits re-runs the test binary as a child
// that registers two cleanups and sends itself SIGINT while blocked. The
// cleanups must run newest-first and the child must exit 128+SIGINT = 130.
func TestGuardSignalRunsCleanupsAndExits(t *testing.T) {
	if os.Getenv(guardChildEnv) == "1" {
		g := NewGuard()
		g.Add(func() { fmt.Println("cleanup first-registered") })
		g.Add(func() { fmt.Println("cleanup last-registered") })
		if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
			fmt.Println("kill:", err)
			os.Exit(3)
		}
		time.Sleep(time.Minute) // the main path, blocked where the signal caught it
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestGuardSignalRunsCleanupsAndExits$")
	cmd.Env = append(os.Environ(), guardChildEnv+"=1")
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 130 {
		t.Fatalf("child exited with %v, want status 130; output:\n%s", err, out)
	}
	want := "cleanup last-registered\ncleanup first-registered\n"
	if !strings.Contains(string(out), want) {
		t.Fatalf("child output:\n%s\nwant the cleanups newest-first:\n%s", out, want)
	}
}
