package trace

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewTextWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 50; i++ {
		r := sampleRecord(i)
		r.Kind = Kind(1 + i%(int(kindMax)-1))
		want = append(want, r)
		if err := w.Write(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewTextReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("text round trip mismatch")
	}
}

// Property: arbitrary records survive the text codec.
func TestTextRoundTripProperty(t *testing.T) {
	f := func(ns int64, kindSel uint8, flags uint8, server int16, client, user, proc int32,
		file, handle uint64, offset, length, size int64) bool {
		if ns < 0 {
			ns = -ns
		}
		rec := Record{
			Time: time.Duration(ns), Kind: Kind(1 + kindSel%uint8(kindMax-1)),
			Flags: flags, Server: server, Client: client, User: user, Proc: proc,
			File: file, Handle: handle, Offset: offset, Length: length, Size: size,
		}
		var buf bytes.Buffer
		w, _ := NewTextWriter(&buf)
		if err := w.Write(&rec); err != nil {
			return false
		}
		w.Flush()
		r, err := NewTextReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.Next()
		return err == nil && got == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTextReaderSkipsCommentsAndBlanks(t *testing.T) {
	input := textHeader + "\n\n# a comment\n" +
		"1000\topen\t4\t0\t1\t2\t3\tff\t9\t0\t0\t100\n"
	r, err := NewTextReader(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != KindOpen || rec.File != 0xff || rec.Size != 100 {
		t.Errorf("parsed: %+v", rec)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestTextReaderErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"bad header", "not a header\n"},
	}
	for _, c := range cases {
		if _, err := NewTextReader(strings.NewReader(c.input)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	lineCases := []string{
		"1000\topen\t4\t0\t1\t2\t3\tff\t9\t0\t0",         // 11 fields
		"xx\topen\t4\t0\t1\t2\t3\tff\t9\t0\t0\t100",      // bad time
		"1000\tbogus\t4\t0\t1\t2\t3\tff\t9\t0\t0\t100",   // bad kind
		"1000\topen\t4\t0\t1\t2\t3\tzz\t9\t0\t0\t100",    // bad hex... zz invalid
		"1000\topen\tnine\t0\t1\t2\t3\tff\t9\t0\t0\t100", // bad flags
		"1000\topen\t4\t0\t1\t2\t3\tff\t9\t0\t0\ttwelve", // bad size
	}
	for i, line := range lineCases {
		r, err := NewTextReader(strings.NewReader(textHeader + "\n" + line + "\n"))
		if err != nil {
			t.Fatalf("case %d: header rejected: %v", i, err)
		}
		if _, err := r.Next(); err == nil || err == io.EOF {
			t.Errorf("case %d: bad line accepted (err=%v)", i, err)
		}
	}
}

func TestBinaryToTextConversion(t *testing.T) {
	// The pipeline a user would run to inspect a binary trace.
	var bin bytes.Buffer
	bw, _ := NewWriter(&bin)
	for i := 0; i < 20; i++ {
		r := sampleRecord(i)
		bw.Write(&r)
	}
	bw.Flush()

	br, _ := NewReader(&bin)
	var txt bytes.Buffer
	tw, _ := NewTextWriter(&txt)
	n := 0
	for {
		r, err := br.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		tw.Write(&r)
		n++
	}
	tw.Flush()
	if n != 20 {
		t.Fatalf("converted %d records", n)
	}
	tr, _ := NewTextReader(&txt)
	got, err := Collect(tr)
	if err != nil || len(got) != 20 {
		t.Fatalf("reparse: %v, %d records", err, len(got))
	}
}
