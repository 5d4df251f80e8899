package harness

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// The CPU profile is decoded in-tree (the module has no dependencies and
// go.mod stays that way). Only the parts of profile.proto the fold needs
// are read: sample types, samples, locations with their inlined lines,
// function names and the string table.

type protoReader struct{ b []byte }

var errProto = errors.New("harness: malformed profile")

func (p *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next reads one field: its number, and either its varint value or its
// length-delimited bytes. Fixed-width fields are skipped over as bytes.
func (p *protoReader) next() (field int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
		return field, v, nil, err
	case 1, 5:
		n := 8
		if key&7 == 5 {
			n = 4
		}
		if len(p.b) < n {
			return 0, 0, nil, errProto
		}
		data, p.b = p.b[:n], p.b[n:]
		return field, 0, data, nil
	case 2:
		n, err := p.varint()
		if err != nil || n > uint64(len(p.b)) {
			return 0, 0, nil, errProto
		}
		data, p.b = p.b[:n], p.b[n:]
		return field, 0, data, nil
	}
	return 0, 0, nil, errProto
}

// repeatedVarint appends one repeated integer field occurrence, packed or not.
func repeatedVarint(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := protoReader{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type profSample struct {
	locs   []uint64
	values []uint64
}

type cpuProfile struct {
	sampleUnits []uint64 // string index of each sample type's unit
	samples     []profSample
	locLines    map[uint64][]uint64 // location id -> function ids, innermost first
	funcName    map[uint64]uint64   // function id -> string index
	strings     []string
	period      uint64
}

func parseProfile(raw []byte) (*cpuProfile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("harness: profile: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("harness: profile: %w", err)
		}
	}
	prof := &cpuProfile{locLines: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	p := protoReader{raw}
	for len(p.b) > 0 {
		field, v, data, err := p.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 1: // sample_type: ValueType{type=1, unit=2}
			q := protoReader{data}
			var unit uint64
			for len(q.b) > 0 {
				f, v, _, err := q.next()
				if err != nil {
					return nil, err
				}
				if f == 2 {
					unit = v
				}
			}
			prof.sampleUnits = append(prof.sampleUnits, unit)
		case 2: // sample: Sample{location_id=1, value=2}
			q := protoReader{data}
			var s profSample
			for len(q.b) > 0 {
				f, v, d, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = repeatedVarint(s.locs, v, d)
				case 2:
					s.values, err = repeatedVarint(s.values, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			prof.samples = append(prof.samples, s)
		case 4: // location: Location{id=1, line=4: Line{function_id=1}}
			q := protoReader{data}
			var id uint64
			var fns []uint64
			for len(q.b) > 0 {
				f, v, d, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4:
					l := protoReader{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			prof.locLines[id] = fns
		case 5: // function: Function{id=1, name=2}
			q := protoReader{data}
			var id, name uint64
			for len(q.b) > 0 {
				f, v, _, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			prof.funcName[id] = name
		case 6:
			prof.strings = append(prof.strings, string(data))
		case 12:
			prof.period = v
		}
	}
	return prof, nil
}

func (prof *cpuProfile) str(i uint64) string {
	if i < uint64(len(prof.strings)) {
		return prof.strings[i]
	}
	return ""
}

// Background is the key FoldCPU charges samples to when no frame of the
// stack belongs to a classified module: the Go runtime's own goroutines
// (collector, scheduler) and anything else outside the program's packages.
const Background = ""

// FoldCPU charges every sample of a pprof CPU profile to the innermost
// stack frame that classify accepts, so that runtime work (memclr, map
// growth, allocation) lands on the module that asked for it. Samples with
// no accepted frame go to Background. It returns CPU time per key and the
// profile's total.
func FoldCPU(raw []byte, classify func(function string) (key string, ok bool)) (map[string]time.Duration, time.Duration, error) {
	prof, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	// Use the nanoseconds column when there is one; otherwise count × period.
	col, scale := -1, uint64(1)
	for i, u := range prof.sampleUnits {
		if prof.str(u) == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		col, scale = 0, prof.period
		if len(prof.sampleUnits) == 0 || scale == 0 {
			return nil, 0, fmt.Errorf("harness: profile has no usable sample type")
		}
	}
	// Classify each function once.
	type verdict struct {
		key string
		ok  bool
	}
	byFunc := make(map[uint64]verdict, len(prof.funcName))
	for id, name := range prof.funcName {
		k, ok := classify(prof.str(name))
		byFunc[id] = verdict{k, ok}
	}
	out := make(map[string]time.Duration)
	var total time.Duration
	for _, s := range prof.samples {
		if col >= len(s.values) {
			return nil, 0, errProto
		}
		d := time.Duration(s.values[col] * scale)
		total += d
		key := Background
	stack:
		for _, loc := range s.locs { // leaf first
			for _, fn := range prof.locLines[loc] { // innermost inlined frame first
				if v := byFunc[fn]; v.ok {
					key = v.key
					break stack
				}
			}
		}
		out[key] += d
	}
	return out, total, nil
}

// ModuleClassifier returns a FoldCPU classifier for this repository's
// import paths: a function in spritefs/internal/<module>[/...] is charged
// to <module> when listed; a function in spritefs/bench/... or the main
// package is charged to harnessKey (the benchmark's own load generators
// and bookkeeping).
// Unlisted internal packages (small helpers such as stats) are passed
// over, so their time lands on the listed module that called them.
func ModuleClassifier(listed []string, harnessKey string) func(string) (string, bool) {
	set := make(map[string]bool, len(listed))
	for _, m := range listed {
		set[m] = true
	}
	return func(fn string) (string, bool) {
		if rest, ok := strings.CutPrefix(fn, "spritefs/internal/"); ok {
			if i := strings.IndexAny(rest, "/."); i > 0 && set[rest[:i]] {
				return rest[:i], true
			}
			return "", false
		}
		if strings.HasPrefix(fn, "spritefs/bench/") || strings.HasPrefix(fn, "main.") {
			return harnessKey, true
		}
		return "", false
	}
}
