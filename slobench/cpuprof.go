package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the packages whose CPU share the traced run reports.
var cpuLayers = []string{"logobj", "core", "replog", "paxos", "storage", "wire", "obs", "runtime"}

// profSample is one CPU-profile sample: its stack as function names,
// innermost first, and the CPU time it stands for.
type profSample struct {
	stack []string
	value int64
}

// layerOf names the layer a stack is charged to: the package of its
// innermost repro/internal frame (so runtime work such as allocation called
// from a package is charged to that package), else "runtime" when the
// innermost frame is in the Go runtime (GC workers, the scheduler), else
// "other".
func layerOf(stack []string) string {
	const prefix = "repro/internal/"
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, prefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	if len(stack) > 0 && strings.HasPrefix(stack[0], "runtime.") {
		return "runtime"
	}
	return "other"
}

// layerCPU sums the samples' CPU time per layer.
func layerCPU(samples []profSample) map[string]int64 {
	sum := make(map[string]int64)
	for _, s := range samples {
		sum[layerOf(s.stack)] += s.value
	}
	return sum
}

// parseProfile decodes a gzipped pprof protobuf (the format runtime/pprof
// writes) into samples carrying the "cpu" value, or the last value when the
// profile has no sample type of that name. Only the fields needed to name
// each frame are decoded: sample_type, sample, location, function and the
// string table.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes [][2]int64 // (type, unit) string indices
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName    = map[uint64]int64{}    // function id -> name string index
		strs        []string
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var st [2]int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					st[n-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, st)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, wt int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return eachVarint(wt, v, pb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(wt, v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	vi := len(sampleTypes) - 1
	for i, st := range sampleTypes {
		if str(st[0]) == "cpu" {
			vi = i
		}
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if vi < 0 || vi >= len(s.values) {
			continue
		}
		ps := profSample{value: s.values[vi]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				ps.stack = append(ps.stack, str(funcName[fn]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks a protobuf message, calling fn with each field's number,
// wire type, and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, packed or not.
func eachVarint(wt int, v uint64, packed []byte, fn func(uint64)) error {
	if wt == 0 {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}
