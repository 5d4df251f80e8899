package faults

import (
	"reflect"
	"testing"
)

// FuzzParseSchedule holds the -faults grammar to its contract on arbitrary
// text: Parse never panics, and a schedule it accepts is in range, sorted
// by firing time, and renders to text that parses back to the same
// schedule.
func FuzzParseSchedule(f *testing.F) {
	f.Add("server-crash:0@10m/30s,partition:3@5m/20s,client-crash:2@15m,delay@0s/1h/20ms,drop@0s/1h/500ms/2")
	f.Add(" drop@1.5s/2m3s/1us/7 ,, delay@1h/0s/0s")
	f.Add("")
	f.Add("server-crash@10m/30s")     // rejected: missing target
	f.Add("delay:1@0s/1m/5ms")        // rejected: spurious target
	f.Add("explode:0@10m/30s")        // rejected: unknown kind
	f.Add("drop@0s/1m/500ms/0")       // rejected: drop period < 1
	f.Add("partition:-1@5m/20s")      // rejected: negative target
	f.Add("server-crash:0@-10m/30s")  // rejected: negative time
	f.Add("client-crash:2@15m/1s@2s") // rejected: stray field
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		for i, e := range s.Events {
			if e.At < 0 || e.Duration < 0 || e.Extra < 0 || e.Target < 0 || (e.Kind == Drop && e.Every < 1) {
				t.Fatalf("accepted out-of-range event %+v", e)
			}
			if i > 0 && e.At < s.Events[i-1].At {
				t.Fatalf("events not sorted by time: %s", s)
			}
		}
		again, err := Parse(s.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", s.String(), err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("round trip changed the schedule:\n  %s\n  %s", s, again)
		}
	})
}
