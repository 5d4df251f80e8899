package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSamplerLateClientsPinned pins the sampler and Table 4 when
// workstations come up out of id order while the cluster runs: client 5
// from the start, then clients 2 and 9 twenty minutes in (2 lands before 5
// in Clients, 9 after it). Every family is sampled each minute; the
// workstations write and read files at fixed instants, so their cache
// sizes and op counts move. The TSV (a late member reads "-" before it
// existed) and Table 4 are compared to testdata/sampler_late_clients.txt;
// regenerate with -update-golden only for an intended behaviour change.
func TestSamplerLateClientsPinned(t *testing.T) {
	c := NewSystem(Config{NumServers: 2, SamplePeriod: time.Minute})
	c.AddClient(5)
	c.StartDaemons()

	// work has workstation id write a file of kb KB, then read it twice.
	work := func(id int32, kb int64) {
		cl := c.ClientByID(id)
		f := cl.Create(id, 1, false, false)
		h, _, err := cl.Open(id, 1, f, true, true, false)
		if err != nil {
			t.Fatal(err)
		}
		cl.Write(h, kb<<10)
		cl.Seek(h, 0)
		cl.Read(h, kb<<10)
		cl.Seek(h, 0)
		cl.Read(h, kb<<10)
		if _, err := cl.Close(h); err != nil {
			t.Fatal(err)
		}
	}
	for m := 1; m <= 75; m++ {
		at := time.Duration(m)*time.Minute - 30*time.Second
		c.Sim.RunUntil(at)
		if m == 20 {
			c.AddClient(2)
			c.AddClient(9)
		}
		for _, id := range []int32{2, 5, 9} {
			if c.ClientByID(id) != nil && (m+int(id))%4 == 0 {
				work(id, int64(64*(1+(m+int(id))%7)))
			}
		}
	}
	c.Sim.RunUntil(76 * time.Minute)
	c.Finish()

	var b strings.Builder
	if err := c.MetricSampler.WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "%+v\n", c.Table4Report())
	got := b.String()

	path := filepath.Join("testdata", "sampler_late_clients.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin (regenerate with -update-golden): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("sampler drifted at line %d:\n got %.300s\nwant %.300s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("sampler drifted: %d lines, want %d", len(gl), len(wl))
}
