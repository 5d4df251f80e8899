package netsim

import (
	"testing"
	"time"
)

// windowHook is a miniature schedule-driven fault hook: partitions stall
// RPCs until the window closes, delay windows add a fixed latency, drop
// windows lose every k-th RPC. It mirrors the shape of the hook that
// internal/faults installs, driven here by an explicit test clock.
type windowHook struct {
	now time.Duration

	partFrom, partTo   time.Duration // client partition window
	partServer         int16         // server whose outage stalls RPCs (-2 = none)
	srvFrom, srvTo     time.Duration
	delayFrom, delayTo time.Duration
	delay              time.Duration
	dropFrom, dropTo   time.Duration
	dropEvery          int
	retry              time.Duration

	rpcs int
}

func (h *windowHook) Outcome(server int16, client int32, class Class, payload int64) Outcome {
	var o Outcome
	if h.now >= h.partFrom && h.now < h.partTo {
		o.ExtraDelay += h.partTo - h.now
	}
	if server == h.partServer && h.now >= h.srvFrom && h.now < h.srvTo {
		o.ExtraDelay += h.srvTo - h.now
	}
	if h.now >= h.delayFrom && h.now < h.delayTo {
		o.ExtraDelay += h.delay
	}
	if h.dropEvery > 0 && h.now >= h.dropFrom && h.now < h.dropTo {
		h.rpcs++
		if h.rpcs%h.dropEvery == 0 {
			o.Dropped++
			o.ExtraDelay += h.retry
		}
	}
	return o
}

func TestFaultHookPerturbations(t *testing.T) {
	const sec = time.Second
	base := New(DefaultConfig()).RPC(1, Control, 0) // healthy baseline latency

	tests := []struct {
		name string
		hook *windowHook
		// one RPC issued at each listed time, to server 0 for client 1
		at         []time.Duration
		wantExtra  []time.Duration // extra delay beyond baseline per RPC
		wantDrops  int64
		wantRetx   int64
		wantStalls int64
	}{
		{
			name:      "client partition stalls until heal",
			hook:      &windowHook{partServer: -2, partFrom: 10 * sec, partTo: 40 * sec},
			at:        []time.Duration{5 * sec, 10 * sec, 25 * sec, 40 * sec},
			wantExtra: []time.Duration{0, 30 * sec, 15 * sec, 0},
			// 10s and 25s RPCs stall; window edges are half-open.
			wantStalls: 2,
		},
		{
			name:      "zero-duration partition perturbs nothing",
			hook:      &windowHook{partServer: -2, partFrom: 10 * sec, partTo: 10 * sec},
			at:        []time.Duration{9 * sec, 10 * sec, 11 * sec},
			wantExtra: []time.Duration{0, 0, 0},
		},
		{
			name: "back-to-back faults: client partition then server outage",
			hook: &windowHook{partServer: 0, partFrom: 10 * sec, partTo: 20 * sec,
				srvFrom: 20 * sec, srvTo: 30 * sec},
			at:         []time.Duration{15 * sec, 20 * sec, 29 * sec, 30 * sec},
			wantExtra:  []time.Duration{5 * sec, 10 * sec, 1 * sec, 0},
			wantStalls: 3,
		},
		{
			name:       "delay window adds fixed latency per RPC",
			hook:       &windowHook{partServer: -2, delayFrom: 0, delayTo: 60 * sec, delay: 20 * time.Millisecond},
			at:         []time.Duration{sec, 2 * sec, 61 * sec},
			wantExtra:  []time.Duration{20 * time.Millisecond, 20 * time.Millisecond, 0},
			wantStalls: 2,
		},
		{
			name:       "drop window loses every 2nd RPC and charges the retry timeout",
			hook:       &windowHook{partServer: -2, dropFrom: 0, dropTo: 60 * sec, dropEvery: 2, retry: 500 * time.Millisecond},
			at:         []time.Duration{sec, 2 * sec, 3 * sec, 4 * sec},
			wantExtra:  []time.Duration{0, 500 * time.Millisecond, 0, 500 * time.Millisecond},
			wantDrops:  2,
			wantRetx:   2,
			wantStalls: 2,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			n := New(DefaultConfig())
			n.SetHook(tc.hook)
			for i, at := range tc.at {
				tc.hook.now = at
				got := n.RPCTo(0, 1, Control, 0)
				if want := base + tc.wantExtra[i]; got != want {
					t.Errorf("RPC at %v: latency %v, want %v", at, got, want)
				}
			}
			st := n.FaultStats()
			if st.DroppedOps != tc.wantDrops || st.Retransmit != tc.wantRetx || st.StalledOps != tc.wantStalls {
				t.Errorf("fault stats = %+v, want drops=%d retx=%d stalls=%d",
					st, tc.wantDrops, tc.wantRetx, tc.wantStalls)
			}
			if st.StallTime < 0 {
				t.Errorf("negative stall time %v", st.StallTime)
			}
		})
	}
}

func TestRPCToScopesServerOutage(t *testing.T) {
	// A server-0 outage stalls only RPCs addressed to server 0; traffic to
	// server 1 and AnyServer traffic pass untouched.
	h := &windowHook{partServer: 0, srvFrom: 0, srvTo: 30 * time.Second}
	n := New(DefaultConfig())
	n.SetHook(h)
	h.now = 10 * time.Second
	base := New(DefaultConfig()).RPC(1, Control, 0)
	if got := n.RPCTo(0, 1, Control, 0); got != base+20*time.Second {
		t.Errorf("RPC to down server = %v, want %v", got, base+20*time.Second)
	}
	if got := n.RPCTo(1, 1, Control, 0); got != base {
		t.Errorf("RPC to healthy server = %v, want %v", got, base)
	}
	if got := n.RPC(1, Control, 0); got != base {
		t.Errorf("AnyServer RPC = %v, want %v", got, base)
	}
}

func TestFaultStallExcludedFromWireBusy(t *testing.T) {
	// Stall time is waiting, not transfer: Busy() must not include it.
	n := New(DefaultConfig())
	n.SetHook(&windowHook{partServer: -2, partFrom: 0, partTo: time.Hour})
	n.RPCTo(0, 1, Control, 0)
	if n.Busy() >= time.Hour {
		t.Errorf("wire busy %v includes fault stall", n.Busy())
	}
	if st := n.FaultStats(); st.StallTime != time.Hour {
		t.Errorf("stall time = %v, want 1h", st.StallTime)
	}
}
