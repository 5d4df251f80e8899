// Command tracefmt converts traces between the binary and text formats
// and imports foreign trace dumps into the native format.
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
// Imports are written as binary at the derived-trace header version, with
// the import report on stderr; a plain conversion preserves the input's
// header version.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"spritefs/internal/trace"
	"spritefs/internal/traceio"
)

// maxServers is the largest -servers an import can place files on: the
// file ID routes a record to its server through 16 bits.
const maxServers = 1 << 15

// usageError marks a command-line mistake; main exits 2 for it and 1 for
// an error of the run itself.
type usageError struct{ error }

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "tracefmt:", err)
	if errors.As(err, &usageError{}) {
		os.Exit(2)
	}
	os.Exit(1)
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracefmt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		encode    = fs.Bool("encode", false, "encode text input back to binary")
		importFmt = fs.String("import", "", "import a foreign dump: csv | strace")
		mapSpec   = fs.String("map", "", "column mapping for -import csv, e.g. 'time=0,op=2,path=3,unit=ms'")
		servers   = fs.Int("servers", 4, "server count for -import file placement (1..32768)")
		clients   = fs.Int("clients", 0, "client-id space for -import (0 = importer default)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage is printed, nothing ran
		}
		return usageError{err}
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case fs.NArg() != 1:
		return usageError{errors.New("usage: tracefmt [-encode] [-import csv|strace [-map spec] [-servers n] [-clients n]] tracefile")}
	case *encode && *importFmt != "":
		return usageError{errors.New("-encode and -import are mutually exclusive")}
	case *mapSpec != "" && *importFmt != "csv":
		return usageError{errors.New("-map only applies to -import csv")}
	case (set["servers"] || set["clients"]) && *importFmt == "":
		return usageError{errors.New("-servers and -clients only apply to -import")}
	case *servers < 1 || *servers > maxServers:
		return usageError{fmt.Errorf("-servers %d is outside 1..%d", *servers, maxServers)}
	case *clients < 0:
		return usageError{fmt.Errorf("-clients %d is negative", *clients)}
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()

	if *importFmt == "" {
		return convert(f, stdout, *encode)
	}
	src := traceio.Source{Format: *importFmt, Map: *mapSpec, Options: traceio.Options{NumServers: *servers, Clients: *clients}}
	recs, rep, err := src.Import(f)
	if err != nil {
		return err
	}
	fmt.Fprint(stderr, rep.String())
	return writeBinary(stdout, recs)
}

// writeBinary writes imported records as a binary trace at the
// derived-trace header version.
func writeBinary(out io.Writer, recs []trace.Record) error {
	bw := bufio.NewWriter(out)
	w, err := trace.NewWriterVersion(bw, traceio.ImportVersion)
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
