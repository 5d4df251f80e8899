// Command tracefmt converts traces between the binary and text formats,
// imports foreign trace dumps into the native format, and rescales traces
// with the modernize transform.
//
// Usage:
//
//	tracefmt trace1.srv0 > trace1.srv0.txt         # binary -> text
//	tracefmt -encode trace1.srv0.txt > trace1.bin  # text -> binary
//
//	tracefmt -import csv dump.csv > imported.bin   # foreign -> binary
//	tracefmt -import csv -map 'time=0,client=1,op=2,path=3,offset=4,length=5,unit=ms' dump.csv > t.bin
//	tracefmt -import strace strace.log > imported.bin
//
//	tracefmt -modernize 'size=8,rate=4,clients=4,files=2' trace.bin > scaled.bin
//	tracefmt -import csv -modernize 'size=8,rate=4' dump.csv > scaled.bin
//
// Imports and modernized traces are written as binary at the derived-trace
// header version; the import and rescale reports go to stderr. -import and
// -modernize compose in one invocation, and a plain conversion preserves
// the input's header version.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"spritefs/internal/trace"
	"spritefs/internal/traceio"
)

func main() {
	var (
		encode    = flag.Bool("encode", false, "encode text input back to binary")
		importFmt = flag.String("import", "", "import a foreign dump: csv | strace")
		mapSpec   = flag.String("map", "", "column mapping for -import csv, e.g. 'time=0,op=2,path=3,unit=ms'")
		modSpec   = flag.String("modernize", "", "rescale the trace, e.g. 'size=8,rate=4,clients=4,files=2,skew=5ms'")
		servers   = flag.Int("servers", 4, "server count for -import file placement")
		clients   = flag.Int("clients", 0, "client-id space for -import (0 = importer default)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracefmt [-encode] [-import csv|strace [-map spec]] [-modernize spec] tracefile")
		os.Exit(2)
	}
	if *encode && *importFmt != "" {
		fmt.Fprintln(os.Stderr, "tracefmt: -encode and -import are mutually exclusive")
		os.Exit(2)
	}
	if *mapSpec != "" && *importFmt != "csv" {
		fmt.Fprintln(os.Stderr, "tracefmt: -map only applies to -import csv")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *encode, *importFmt, *mapSpec, *modSpec, *servers, *clients); err != nil {
		fmt.Fprintln(os.Stderr, "tracefmt:", err)
		os.Exit(1)
	}
}

func run(path string, encode bool, importFmt, mapSpec, modSpec string, servers, clients int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var recs []trace.Record
	switch {
	case importFmt != "":
		src := traceio.Source{Format: importFmt, Map: mapSpec, Options: traceio.Options{NumServers: servers, Clients: clients}}
		var rep *traceio.ImportReport
		if recs, rep, err = src.Import(f); err != nil {
			return err
		}
		fmt.Fprint(os.Stderr, rep.String())
	case modSpec != "":
		// Modernizing a native trace: read it whole, in either encoding.
		src, err := trace.NewAutoReader(f)
		if err != nil {
			return err
		}
		if recs, err = trace.Collect(src); err != nil {
			return err
		}
	default:
		return convert(f, os.Stdout, encode)
	}
	if modSpec != "" {
		if recs, err = modernize(recs, modSpec); err != nil {
			return err
		}
	}
	return writeBinary(os.Stdout, recs, traceio.ImportVersion)
}

// modernize parses the profile, applies it, and reports to stderr.
func modernize(recs []trace.Record, spec string) ([]trace.Record, error) {
	prof, err := traceio.ParseProfile(spec)
	if err != nil {
		return nil, err
	}
	out, rep := traceio.Modernize(recs, prof)
	fmt.Fprint(os.Stderr, rep.String())
	return out, nil
}

// writeBinary writes records as a binary trace at the given header version.
func writeBinary(out io.Writer, recs []trace.Record, ver uint16) error {
	bw := bufio.NewWriter(out)
	w, err := trace.NewWriterVersion(bw, ver)
	if err != nil {
		return err
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return bw.Flush()
}

// convert copies a whole trace from in to out, decoding binary to text or
// (with encode) text back to binary. The header version travels with the
// records, so a v2 text trace re-encodes as a v2 binary one.
func convert(in io.Reader, out io.Writer, encode bool) error {
	var src trace.Stream
	var sink interface {
		Write(*trace.Record) error
		Flush() error
	}
	if encode {
		r, err := trace.NewTextReader(in)
		if err != nil {
			return err
		}
		w, err := trace.NewWriterVersion(out, r.Version())
		if err != nil {
			return err
		}
		src, sink = r, w
	} else {
		r, err := trace.NewReader(in)
		if err != nil {
			return err
		}
		w, err := trace.NewTextWriterVersion(out, r.Version())
		if err != nil {
			return err
		}
		src, sink = r, w
	}
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := sink.Write(&rec); err != nil {
			return err
		}
	}
	return sink.Flush()
}
