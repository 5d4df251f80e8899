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
0.150,ws3,read,/usr/lib/libc.so,0,65536
0.165,ws1,delete,/tmp/scratch.o,,
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
