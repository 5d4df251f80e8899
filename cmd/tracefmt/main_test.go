package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"spritefs/internal/trace"
)

// allKindsTrace builds one record of every valid kind, with flags and
// field values chosen to exercise every column (hex fields, negative
// offsets from repositions are not legal, but negative client ids are).
func allKindsTrace() []trace.Record {
	kinds := []trace.Kind{
		trace.KindOpen, trace.KindClose, trace.KindRead, trace.KindWrite,
		trace.KindReposition, trace.KindCreate, trace.KindDelete,
		trace.KindTruncate, trace.KindMigrate, trace.KindDirRead,
	}
	flags := []uint8{
		trace.FlagReadMode, trace.FlagWriteMode, 0, trace.FlagMigrated,
		0, trace.FlagDirectory, 0, 0, trace.FlagSelfTrace, trace.FlagDirectory,
	}
	recs := make([]trace.Record, 0, len(kinds))
	for i, k := range kinds {
		recs = append(recs, trace.Record{
			Time:   time.Duration(i+1) * 73 * time.Millisecond,
			Kind:   k,
			Flags:  flags[i],
			Server: int16(i % 4),
			Client: int32(i - 2), // includes negative (system) clients
			User:   int32(100 + i),
			Proc:   int32(7000 + i),
			File:   uint64(i%4)<<48 | uint64(i+1),
			Handle: uint64(i)<<40 | uint64(i+11),
			Offset: int64(i) * 4096,
			Length: int64(i) * 512,
			Size:   int64(i) * 8192,
		})
	}
	return recs
}

// TestRoundTripAllKinds drives the tool's own conversion path through
// text -> binary -> text and binary -> text -> binary for every record
// kind, checking both byte-level and record-level equality.
func TestRoundTripAllKinds(t *testing.T) {
	recs := allKindsTrace()

	// Author the canonical binary form.
	var bin bytes.Buffer
	w, err := trace.NewWriter(&bin)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// binary -> text -> binary must reproduce the bytes exactly.
	var text, bin2 bytes.Buffer
	if err := convert(bytes.NewReader(bin.Bytes()), &text, false); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := convert(bytes.NewReader(text.Bytes()), &bin2, true); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(bin.Bytes(), bin2.Bytes()) {
		t.Fatal("binary -> text -> binary is not byte-identical")
	}

	// text -> binary -> text likewise.
	var text2 bytes.Buffer
	if err := convert(bytes.NewReader(bin2.Bytes()), &text2, false); err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	if !bytes.Equal(text.Bytes(), text2.Bytes()) {
		t.Fatal("text -> binary -> text is not byte-identical")
	}

	// And the decoded records must equal the originals field for field.
	r, err := trace.NewReader(bytes.NewReader(bin2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("records mutated in round trip:\n got %+v\nwant %+v", got, recs)
	}
}

func TestConvertRejectsWrongFormat(t *testing.T) {
	recs := allKindsTrace()
	var bin bytes.Buffer
	w, err := trace.NewWriter(&bin)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Feeding binary to the text decoder (and vice versa) must error, not
	// silently emit garbage.
	if err := convert(bytes.NewReader(bin.Bytes()), io.Discard, true); err == nil {
		t.Error("encoding binary input as text did not error")
	}
	if err := convert(bytes.NewReader([]byte("#nottrace\n")), io.Discard, true); err == nil {
		t.Error("bad text header accepted")
	}
	if err := convert(bytes.NewReader([]byte("#sprtrc\n1\tbogus\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\n")), io.Discard, true); err == nil {
		t.Error("bad kind name accepted")
	}
}

// TestFlagValidation pins that tracefmt refuses the flag values it used to
// rewrite or ignore without a word (each bad row below once exited 0), and
// still accepts the edges of the valid range.
func TestFlagValidation(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "dump.csv")
	if err := os.WriteFile(csv, []byte("0.0,ws1,open,/a,,\n0.1,ws1,read,/a,0,10\n0.2,ws1,close,/a,,\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		want string // "" = accepted; otherwise a substring of the usage error
	}{
		{[]string{"-import", "csv", "-servers", "0", csv}, "-servers 0 is outside 1..32768"},
		{[]string{"-import", "csv", "-servers", "-5", csv}, "-servers -5 is outside"},
		{[]string{"-import", "csv", "-servers", "32769", csv}, "-servers 32769 is outside"},
		{[]string{"-import", "csv", "-clients", "-2", csv}, "-clients -2 is negative"},
		{[]string{"-servers", "9", csv}, "only apply to -import"},
		{[]string{"-clients", "3", csv}, "only apply to -import"},
		{[]string{"-import", "csv", "-servers", "1", "-clients", "0", csv}, ""},
		{[]string{"-import", "csv", "-servers", "32768", csv}, ""},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args[:len(tc.args)-1], " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				if stdout.Len() == 0 {
					t.Fatal("accepted but wrote no trace")
				}
				return
			}
			if !errors.As(err, &usageError{}) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want a usage error containing %q", err, tc.want)
			}
		})
	}
}
