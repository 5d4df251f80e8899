package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// allKinds is one record of every valid kind, each field distinct.
func allKinds() []Record {
	var recs []Record
	for k := KindInvalid + 1; k < kindMax; k++ {
		r := sampleRecord(int(k) + 1)
		r.Kind, r.Flags = k, uint8(k)
		recs = append(recs, r)
	}
	return recs
}

// encode renders recs in either encoding at the given header version.
func encode(t testing.TB, text bool, ver uint16, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	var w interface {
		Write(*Record) error
		Flush() error
	}
	var err error
	if text {
		w, err = NewTextWriterVersion(&buf, ver)
	} else {
		w, err = NewWriterVersion(&buf, ver)
	}
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
	return buf.Bytes()
}

func TestAutoReaderRoundTripsBothEncodings(t *testing.T) {
	recs := allKinds()
	for _, text := range []bool{false, true} {
		for ver := uint16(1); ver <= MaxVersion; ver++ {
			s, err := NewAutoReader(bytes.NewReader(encode(t, text, ver, recs)))
			if err != nil {
				t.Fatalf("text=%v v%d: %v", text, ver, err)
			}
			if _, isText := s.(*TextReader); isText != text {
				t.Errorf("text=%v v%d: sniffed as %T", text, ver, s)
			}
			if s.Version() != ver {
				t.Errorf("text=%v: Version() = %d, want %d", text, s.Version(), ver)
			}
			got, err := Collect(s)
			if err != nil {
				t.Fatalf("text=%v v%d: %v", text, ver, err)
			}
			if !reflect.DeepEqual(got, recs) {
				t.Errorf("text=%v v%d: records changed in the round trip:\n got %+v\nwant %+v", text, ver, got, recs)
			}
		}
	}
}

func TestAutoReaderRejectsEmptyAndForeignInput(t *testing.T) {
	if _, err := NewAutoReader(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Errorf("empty reader: got %v, want an error wrapping io.EOF", err)
	}
	for _, in := range []string{"time,client,op,path\n", "#not a trace\n", "S", "SPRTRC\x09\x00"} {
		if s, err := NewAutoReader(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("%q accepted as a %T", in, s)
		}
	}
}

// FuzzAutoReader holds the one reader seam every tool opens files through
// to its contract on arbitrary bytes: it never panics, and whatever it
// does decode carries a supported version and valid kinds, and survives
// the binary codec unchanged.
func FuzzAutoReader(f *testing.F) {
	recs := allKinds()
	bin, text := encode(f, false, 1, recs), encode(f, true, 2, recs)
	f.Add(bin)
	f.Add(text)
	f.Add(bin[:len(bin)-recordSize/2])
	f.Add(text[:len(text)-9])
	f.Add(bin[:5])
	f.Add(text[:5])
	f.Add([]byte("\x00\xffgarbage\n\tmore"))
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := NewAutoReader(bytes.NewReader(in))
		if err != nil {
			return
		}
		if v := s.Version(); v < 1 || v > MaxVersion {
			t.Fatalf("accepted unsupported version %d", v)
		}
		var got []Record
		for {
			r, err := s.Next()
			if err != nil {
				break
			}
			if !r.Kind.Valid() {
				t.Fatalf("decoded invalid kind %d", r.Kind)
			}
			got = append(got, r)
		}
		back, err := NewAutoReader(bytes.NewReader(encode(t, false, s.Version(), got)))
		if err != nil {
			t.Fatal(err)
		}
		again, err := Collect(back)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) > 0 && !reflect.DeepEqual(again, got) {
			t.Fatal("decoded records do not survive a binary round trip")
		}
	})
}
