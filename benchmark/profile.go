package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// This file attributes a CPU profile taken by the benchmark process to
// the repository's layers: every sample's leaf frame (the function that
// was on CPU, after inlining) is charged to its prudentia/internal/*
// package, to "runtime" for the Go runtime, and to "other" for the rest
// of the standard library and the benchmark itself. The profile is the
// gzipped protocol-buffer format runtime/pprof writes; only the fields
// needed for leaf attribution are decoded, so the benchmark needs no
// module outside the standard library.

// layerOf maps a symbolized Go function name to the layer it is charged
// to.
func layerOf(fn string) string {
	// Generic instantiations print as Name[...]; cut there so a type
	// argument's import path cannot be mistaken for the function's.
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "prudentia/internal/"):
		rest := pkg[len("prudentia/internal/"):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// cpuProfile is one profiling window.
type cpuProfile struct {
	buf bytes.Buffer
}

// startProfile begins a CPU profile of the whole process.
func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the window and returns CPU seconds per layer.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return layerSeconds(p.buf.Bytes())
}

// layerSeconds decodes a gzipped CPU profile and sums each sample's CPU
// time onto the layer of its leaf frame.
func layerSeconds(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	for _, s := range prof.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		name := "?"
		if fnID, ok := prof.locLeaf[s.locs[0]]; ok {
			if si, ok := prof.funcName[fnID]; ok && si < uint64(len(prof.strs)) {
				name = prof.strs[si]
			}
		}
		// The last sample value is CPU time in nanoseconds
		// (sample types: samples/count, cpu/nanoseconds).
		out[layerOf(name)] += float64(s.values[len(s.values)-1]) / 1e9
	}
	return out, nil
}

type pbSample struct {
	locs   []uint64
	values []int64
}

// pbProfile holds the decoded parts of a profile.proto message:
// samples, each location's leaf function id, each function's name
// index, and the string table.
type pbProfile struct {
	samples  []pbSample
	locLeaf  map[uint64]uint64 // location id -> function id of Line[0]
	funcName map[uint64]uint64 // function id -> string table index
	strs     []string
}

var errProto = errors.New("malformed protobuf")

// pbReader walks protobuf wire-format fields.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errProto
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, and either its varint value
// (wire type 0) or its bytes (wire type 2). Fixed-width fields are
// skipped and reported with neither.
func (r *pbReader) next() (field int, wire int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1, 5:
		n := 8
		if wire == 5 {
			n = 4
		}
		if len(r.b) < n {
			return 0, 0, 0, nil, errProto
		}
		r.b = r.b[n:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, 0, nil, errProto
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	default:
		err = errProto
	}
	return field, wire, v, data, err
}

// uints appends a repeated integer field, which may be packed (wire
// type 2) or written one element per field (wire type 0).
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locLeaf: map[uint64]uint64{}, funcName: map[uint64]uint64{}}
	r := pbReader{b}
	for len(r.b) > 0 {
		field, wire, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			s, err := decodeSample(data)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			if err := p.decodeLocation(data); err != nil {
				return nil, err
			}
		case 5: // Function
			if err := p.decodeFunction(data); err != nil {
				return nil, err
			}
		case 6: // string_table
			if wire != 2 {
				return nil, errProto
			}
			p.strs = append(p.strs, string(data))
		}
	}
	return p, nil
}

func decodeSample(b []byte) (pbSample, error) {
	var s pbSample
	var vals []uint64
	r := pbReader{b}
	for len(r.b) > 0 {
		field, wire, v, data, err := r.next()
		if err != nil {
			return s, err
		}
		switch field {
		case 1:
			s.locs, err = uints(s.locs, wire, v, data)
		case 2:
			vals, err = uints(vals, wire, v, data)
		}
		if err != nil {
			return s, err
		}
	}
	for _, v := range vals {
		s.values = append(s.values, int64(v))
	}
	return s, nil
}

func (p *pbProfile) decodeLocation(b []byte) error {
	var id, leaf uint64
	haveLeaf := false
	r := pbReader{b}
	for len(r.b) > 0 {
		field, _, v, data, err := r.next()
		if err != nil {
			return err
		}
		switch field {
		case 1:
			id = v
		case 4: // Line; the first entry is the innermost inlined frame
			if haveLeaf {
				continue
			}
			lr := pbReader{data}
			for len(lr.b) > 0 {
				f, _, lv, _, err := lr.next()
				if err != nil {
					return err
				}
				if f == 1 {
					leaf, haveLeaf = lv, true
				}
			}
		}
	}
	if haveLeaf {
		p.locLeaf[id] = leaf
	}
	return nil
}

func (p *pbProfile) decodeFunction(b []byte) error {
	var id, name uint64
	r := pbReader{b}
	for len(r.b) > 0 {
		field, _, v, _, err := r.next()
		if err != nil {
			return err
		}
		switch field {
		case 1:
			id = v
		case 2:
			name = v
		}
	}
	p.funcName[id] = name
	return nil
}
