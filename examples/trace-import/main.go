// trace-import demonstrates the foreign-trace pipeline end to end:
// import a CSV activity dump into the native trace format and replay the
// result under a cache sweep — twice, at different worker counts, to show
// that the imported trace replays byte-identically regardless of
// parallelism.
//
// The same pipeline is available from the command line:
//
//	tracefmt -import csv dump.csv > t.bin
//	replay -trace t.bin -speed 0 -sweep cache=16,256,1024
//
//	go run ./examples/trace-import
package main

import (
	"fmt"
	"log"
	"strings"

	"spritefs/internal/replay"
	"spritefs/internal/traceio"
)

// dump is the kind of CSV a site's activity logger might emit: seconds
// since start, a workstation name, an operation, a path, and optional
// offset/length columns. This matches traceio.DefaultCSVMapping.
//
// Its accesses are shaped so that the sweep's rows differ. ws3 reads a
// 96-block library twice, which a 16-page cache cannot keep between the
// passes and the larger ones can, and then a 320-block one twice, which
// only the 1024-page cache keeps. ws1 opens the log ws2 has just written
// and closed, so the server recalls ws2's dirty blocks; and ws1 and ws2
// hold notes.txt open at once while ws2 writes it, which is concurrent
// write-sharing (the importer opens files for reading and writing).
const dump = `# time,client,op,path,offset,length
0.000,ws1,open,/home/a/thesis.tex,,
0.015,ws1,read,/home/a/thesis.tex,0,8192
0.030,ws1,read,/home/a/thesis.tex,8192,8192
0.045,ws2,open,/home/b/build.log,,
0.060,ws2,write,/home/b/build.log,0,1024
0.075,ws1,close,/home/a/thesis.tex,,
0.090,ws2,write,/home/b/build.log,1024,1024
0.105,ws2,seek,/home/b/build.log,0,
0.120,ws2,read,/home/b/build.log,,512
0.135,ws2,close,/home/b/build.log,,
0.150,ws3,read,/usr/lib/libc.so,0,393216
0.165,ws1,delete,/tmp/scratch.o,,
0.180,ws1,open,/home/b/build.log,,
0.195,ws1,read,/home/b/build.log,0,2048
0.210,ws1,close,/home/b/build.log,,
0.225,ws1,open,/home/a/notes.txt,,
0.240,ws1,read,/home/a/notes.txt,0,4096
0.255,ws2,open,/home/a/notes.txt,,
0.270,ws2,write,/home/a/notes.txt,4096,4096
0.285,ws1,read,/home/a/notes.txt,4096,4096
0.300,ws2,close,/home/a/notes.txt,,
0.315,ws1,close,/home/a/notes.txt,,
0.330,ws3,read,/usr/lib/libc.so,0,393216
0.345,ws1,open,/home/a/thesis.tex,,
0.360,ws1,read,/home/a/thesis.tex,0,16384
0.375,ws1,close,/home/a/thesis.tex,,
0.390,ws3,read,/usr/lib/libX11.so,0,1310720
0.405,ws3,read,/usr/lib/libX11.so,0,1310720
`

func main() {
	// Import: foreign CSV -> native records, with the importer's report.
	recs, irep, err := traceio.ImportCSV(strings.NewReader(dump),
		traceio.DefaultCSVMapping(), traceio.Options{NumServers: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(irep.String())

	// Replay the imported trace under a cache sweep, once sequentially and
	// once with 4 workers; each configuration runs on its own hermetic
	// engine, so the reports are identical.
	cfgs := []replay.Config{
		{Name: "cache=16", AsFastAsPossible: true, FixedCachePages: 16},
		{Name: "cache=256", AsFastAsPossible: true, FixedCachePages: 256},
		{Name: "cache=1024", AsFastAsPossible: true, FixedCachePages: 1024},
	}
	seq, err := replay.RunSweep(recs, cfgs, 1)
	if err != nil {
		log.Fatal(err)
	}
	par, err := replay.RunSweep(recs, cfgs, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(replay.SweepTable(seq))
	if replay.SweepTable(seq).TSV() != replay.SweepTable(par).TSV() {
		log.Fatal("worker counts disagreed — determinism violated")
	}
	fmt.Printf("replayed %d records; 1-worker and 4-worker sweeps byte-identical\n", len(recs))
}
