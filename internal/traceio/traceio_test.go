package traceio

import (
	"strings"
	"testing"
	"time"

	"spritefs/internal/trace"
)

const sampleCSV = `# time,client,op,path,offset,length
0.000,ws1,open,/home/a/paper.tex,,
0.010,ws1,read,/home/a/paper.tex,0,4096
0.020,ws1,read,/home/a/paper.tex,4096,4096
0.030,ws2,write,/home/b/out.log,0,512
0.040,ws1,close,/home/a/paper.tex,,
0.050,ws2,write,/home/b/out.log,512,512
0.060,ws2,seek,/home/b/out.log,0,
0.070,ws2,read,/home/b/out.log,,256
0.080,ws2,delete,/tmp/scratch,,
`

func importSample(t *testing.T) ([]trace.Record, *ImportReport) {
	t.Helper()
	recs, rep, err := ImportCSV(strings.NewReader(sampleCSV), DefaultCSVMapping(), Options{})
	if err != nil {
		t.Fatalf("ImportCSV: %v", err)
	}
	return recs, rep
}

func TestImportCSVBasics(t *testing.T) {
	recs, rep := importSample(t)
	if rep.Malformed != 0 {
		t.Fatalf("malformed = %d, want 0 (notes: %v)", rep.Malformed, rep.Notes)
	}
	// ws2's first write has no open: one synthesized open, and its handle
	// (plus the delete-only path needs none) is closed at EOF.
	if rep.SynthOpens != 1 {
		t.Errorf("SynthOpens = %d, want 1", rep.SynthOpens)
	}
	if rep.SynthCloses != 1 {
		t.Errorf("SynthCloses = %d, want 1", rep.SynthCloses)
	}
	if rep.Files != 3 {
		t.Errorf("Files = %d, want 3", rep.Files)
	}
	if rep.Clients != 2 {
		t.Errorf("Clients = %d, want 2", rep.Clients)
	}
	if recs[0].Time != 0 {
		t.Errorf("first record at %s, want 0 (time normalization)", recs[0].Time)
	}
	// Every read/write must reference a handle introduced by an open.
	opened := map[uint64]bool{}
	for _, r := range recs {
		switch r.Kind {
		case trace.KindOpen:
			opened[r.Handle] = true
		case trace.KindRead, trace.KindWrite, trace.KindReposition:
			if !opened[r.Handle] {
				t.Errorf("%s record references handle %d with no prior open", r.Kind, r.Handle)
			}
		case trace.KindClose:
			if !opened[r.Handle] {
				t.Errorf("close references handle %d with no prior open", r.Handle)
			}
			delete(opened, r.Handle)
		}
		if int(r.Server) != int(r.File>>48) && r.File != 0 {
			t.Errorf("record server %d does not match file route %d", r.Server, r.File>>48)
		}
	}
	if len(opened) != 0 {
		t.Errorf("%d handles never closed", len(opened))
	}
}

func TestImportCSVSequentialOffsets(t *testing.T) {
	recs, _ := importSample(t)
	// ws2's log file: writes at 0 and 512 (explicit), seek to 0, then an
	// offsetless read which must resume at the seek target.
	var readOff int64 = -1
	for _, r := range recs {
		if r.Kind == trace.KindRead && r.Length == 256 {
			readOff = r.Offset
		}
	}
	if readOff != 0 {
		t.Fatalf("offsetless read after seek(0) landed at %d, want 0", readOff)
	}
}

func TestImportCSVMalformedRows(t *testing.T) {
	in := `0.0,ws1,open,/a,,
not-a-time,ws1,read,/a,0,10
0.1,ws1,frobnicate,/a,0,10
0.2,ws1,read,/a,bad-offset,10
0.3,ws1,stat,/a,,
0.4,ws1,close,/a,,
`
	recs, rep, err := ImportCSV(strings.NewReader(in), DefaultCSVMapping(), Options{})
	if err != nil {
		t.Fatalf("ImportCSV: %v", err)
	}
	if rep.Malformed != 3 {
		t.Errorf("Malformed = %d, want 3 (notes: %v)", rep.Malformed, rep.Notes)
	}
	if rep.Ignored != 1 {
		t.Errorf("Ignored = %d, want 1 (the stat row)", rep.Ignored)
	}
	if len(recs) != 2 {
		t.Errorf("got %d records, want 2 (open+close)", len(recs))
	}
	if len(rep.Notes) == 0 {
		t.Error("expected skip diagnostics in report notes")
	}
}

func TestImportCSVEmptyInput(t *testing.T) {
	for _, in := range []string{"", "# just a comment\n"} {
		if _, _, err := ImportCSV(strings.NewReader(in), DefaultCSVMapping(), Options{}); err == nil {
			t.Errorf("ImportCSV(%q) succeeded, want error", in)
		}
	}
	if _, _, err := ImportStrace(strings.NewReader(""), Options{}); err == nil {
		t.Error("ImportStrace(empty) succeeded, want error")
	}
}

func TestImportCSVOutOfOrderTimestamps(t *testing.T) {
	in := `0.5,ws1,open,/a,,
0.1,ws1,read,/a,0,10
0.9,ws1,close,/a,,
0.2,ws1,read,/a,10,10
`
	recs, rep, err := ImportCSV(strings.NewReader(in), DefaultCSVMapping(), Options{})
	if err != nil {
		t.Fatalf("ImportCSV: %v", err)
	}
	if rep.Reordered == 0 {
		t.Error("Reordered = 0, want > 0")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Time < recs[i-1].Time {
			t.Fatalf("output not time-sorted at %d: %s after %s", i, recs[i].Time, recs[i-1].Time)
		}
	}
	// The 0.1s read precedes the 0.5s open in time order, so the open is
	// synthesized for it and the explicit open closes the stale bracket.
	if rep.SynthOpens != 1 {
		t.Errorf("SynthOpens = %d, want 1", rep.SynthOpens)
	}
}

func TestImportCSVDeterministic(t *testing.T) {
	a, _ := importSample(t)
	b, _ := importSample(t)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs across identical imports:\n%v\n%v", i, a[i], b[i])
		}
	}
}

func TestParseCSVMapping(t *testing.T) {
	m, err := ParseCSVMapping("time=3,client=0,op=1,path=2,offset=-,length=4,unit=us,sep=tab,skip=1,op.wr_blk=write")
	if err != nil {
		t.Fatal(err)
	}
	if m.Time != 3 || m.Client != 0 || m.Offset != -1 || m.TimeUnit != time.Microsecond ||
		m.Comma != '\t' || m.SkipRows != 1 {
		t.Fatalf("mapping mis-parsed: %+v", m)
	}
	if m.Ops["wr_blk"] != trace.KindWrite {
		t.Fatalf("custom op not registered: %+v", m.Ops)
	}
	if _, err := ParseCSVMapping("time=-"); err == nil {
		t.Error("mapping without a time column accepted")
	}
	if _, err := ParseCSVMapping("bogus=1"); err == nil {
		t.Error("unknown key accepted")
	}
}

const sampleStrace = `1700000000.000100 openat(AT_FDCWD, "/usr/lib/libc.so", O_RDONLY|O_CLOEXEC) = 3
1700000000.000200 read(3, "\x7fELF"..., 832) = 832
1700000000.000300 pread64(3, ""..., 784, 64) = 784
1700000000.000400 close(3) = 0
[pid  4242] 1700000000.000500 openat(AT_FDCWD, "/tmp/build.log", O_WRONLY|O_CREAT, 0644) = 5
[pid  4242] 1700000000.000600 write(5, "gcc -c main.c\n", 14) = 14
[pid  4242] 1700000000.000700 lseek(5, 0, SEEK_SET) = 0
[pid  4242] 1700000000.000800 read(7, "...", 512) = 512
1700000000.000900 openat(AT_FDCWD, "/etc/hosts", O_RDONLY) = -1 ENOENT (No such file or directory)
1700000000.001000 getdents64(9, 0x55..., 32768) = 1024
--- SIGCHLD {si_signo=SIGCHLD} ---
+++ exited with 0 +++
1700000000.001100 unlink("/tmp/stale.o") = 0
`

func TestImportStrace(t *testing.T) {
	recs, rep, err := ImportStrace(strings.NewReader(sampleStrace), Options{})
	if err != nil {
		t.Fatalf("ImportStrace: %v (report %s)", err, rep)
	}
	if rep.Malformed != 0 {
		t.Fatalf("malformed = %d (notes %v)", rep.Malformed, rep.Notes)
	}
	// The failed openat must be ignored, not imported.
	for _, r := range recs {
		if r.Kind == trace.KindOpen && r.Size == 0 && r.File == 0 {
			t.Errorf("suspicious open record: %+v", r)
		}
	}
	kinds := map[trace.Kind]int{}
	for _, r := range recs {
		kinds[r.Kind]++
	}
	// Explicit opens: libc + build.log. Synthesized: fd 7 (pid 4242) and
	// the getdents fd 9.
	if kinds[trace.KindOpen] != 4 {
		t.Errorf("opens = %d, want 4 (2 traced + 2 inferred); kinds %v", kinds[trace.KindOpen], kinds)
	}
	if rep.SynthOpens != 2 {
		t.Errorf("SynthOpens = %d, want 2", rep.SynthOpens)
	}
	if kinds[trace.KindRead] != 3 {
		t.Errorf("reads = %d, want 3", kinds[trace.KindRead])
	}
	if kinds[trace.KindDirRead] != 1 {
		t.Errorf("dirreads = %d, want 1", kinds[trace.KindDirRead])
	}
	if kinds[trace.KindDelete] != 1 {
		t.Errorf("deletes = %d, want 1", kinds[trace.KindDelete])
	}
	// pread64's explicit offset must be honored.
	var sawPread bool
	for _, r := range recs {
		if r.Kind == trace.KindRead && r.Length == 784 {
			sawPread = true
			if r.Offset != 64 {
				t.Errorf("pread64 offset = %d, want 64", r.Offset)
			}
		}
	}
	if !sawPread {
		t.Error("pread64 record missing")
	}
	// All handles closed by the end (close traced or synthesized).
	open := map[uint64]bool{}
	for _, r := range recs {
		switch r.Kind {
		case trace.KindOpen:
			open[r.Handle] = true
		case trace.KindClose:
			delete(open, r.Handle)
		}
	}
	if len(open) != 0 {
		t.Errorf("%d handles left open", len(open))
	}
}

func TestImportStraceNoTimestamps(t *testing.T) {
	in := `openat(AT_FDCWD, "/a", O_RDONLY) = 3
read(3, "", 100) = 100
close(3) = 0
`
	recs, _, err := ImportStrace(strings.NewReader(in), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Time < recs[i-1].Time {
			t.Fatal("synthetic clock not monotone")
		}
	}
	if recs[len(recs)-1].Time == recs[0].Time {
		t.Error("synthetic clock did not advance")
	}
}

func TestImportStraceWallClockWrap(t *testing.T) {
	in := `23:59:59.900 openat(AT_FDCWD, "/a", O_RDONLY) = 3
00:00:00.100 read(3, "", 100) = 100
00:00:00.200 close(3) = 0
`
	recs, _, err := ImportStrace(strings.NewReader(in), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := recs[len(recs)-1].Time - recs[0].Time; d <= 0 || d > time.Second {
		t.Fatalf("midnight wrap mishandled: trace spans %s", d)
	}
}

func FuzzImportCSV(f *testing.F) {
	f.Add(sampleCSV)
	f.Add("0.0,ws1,open,/a,,\n")
	f.Add("not,csv,at,all\n\"unterminated")
	f.Add("0.0;ws1;open;/a\n")
	f.Fuzz(func(t *testing.T, in string) {
		recs, _, err := ImportCSV(strings.NewReader(in), DefaultCSVMapping(), Options{})
		if err != nil {
			return
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Time < recs[i-1].Time {
				t.Fatal("import produced a time-unsorted stream")
			}
		}
		for _, r := range recs {
			if !r.Kind.Valid() {
				t.Fatalf("invalid kind %d emitted", r.Kind)
			}
		}
	})
}

func FuzzImportStrace(f *testing.F) {
	f.Add(sampleStrace)
	f.Add("read(3, \"\", 10) = 10\n")
	f.Add("[pid 1] garbage\n= = =\n")
	f.Fuzz(func(t *testing.T, in string) {
		recs, _, err := ImportStrace(strings.NewReader(in), Options{})
		if err != nil {
			return
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Time < recs[i-1].Time {
				t.Fatal("import produced a time-unsorted stream")
			}
		}
	})
}

// FuzzParseCSVMapping holds the -map grammar to its contract on arbitrary
// text: ParseCSVMapping never panics, a mapping it accepts places the
// three required columns and carries a usable unit, separator and op
// table, and importing through that mapping never panics either (columns
// past the end of a row are that row's problem, not the importer's).
func FuzzParseCSVMapping(f *testing.F) {
	f.Add("")
	f.Add("time=0,client=1,op=2,path=3,offset=4,length=5,unit=us,sep=tab,skip=1")
	f.Add("time=3, path=0 ,op=1,client=-,user=,pid=9,size=7,len=2,op.WRITE_BLOCK=write,sep=semicolon")
	f.Add("op=99999999999,unit=ns")
	f.Add("time")                  // rejected: not key=value
	f.Add("time=-")                // rejected: required column absent
	f.Add("client=-2")             // rejected: negative column
	f.Add("unit=fortnight")        // rejected: unknown unit
	f.Add("sep=|")                 // rejected: unknown separator
	f.Add("op.frobnicate=explode") // rejected: unknown kind
	f.Add("colour=blue")           // rejected: unknown key
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseCSVMapping(spec)
		if err != nil {
			return
		}
		if m.Time < 0 || m.Op < 0 || m.Path < 0 {
			t.Fatalf("accepted a mapping without time/op/path: %+v", m)
		}
		for _, col := range []int{m.Client, m.User, m.Proc, m.Offset, m.Length, m.Size} {
			if col < -1 {
				t.Fatalf("accepted column index %d: %+v", col, m)
			}
		}
		if m.TimeUnit <= 0 || !strings.ContainsRune(",\t; ", m.Comma) {
			t.Fatalf("accepted unit %v / separator %q", m.TimeUnit, m.Comma)
		}
		for name, kind := range m.Ops {
			if !kind.Valid() || name != strings.ToLower(name) {
				t.Fatalf("accepted op mapping %q -> %d", name, kind)
			}
		}
		ImportCSV(strings.NewReader(sampleCSV), m, Options{}) // must not panic; errors are fine
	})
}
