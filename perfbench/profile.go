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

// CPU attribution from a pprof profile, decoded with the standard
// library alone: the profile is gzipped protocol buffers (profile.proto
// in github.com/google/pprof), and only the fields below are read.
//
// Each sample is charged to the innermost frame that belongs to a
// package under sciera/internal/, so standard-library work (crypto,
// container/heap, mallocgc, ...) counts toward the sciera caller that
// asked for it. Samples with no such frame are charged to "runtime".

const modulePrefix = "sciera/internal/"

// profile.proto field numbers.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// moduleOf maps a function name to its sciera/internal package, or ""
// when the function lives elsewhere.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// cpuShares returns each module's share of the profile's sampled CPU
// time. The shares sum to 1 over the returned map.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	var (
		sampleTypes []int64 // string-table index of each value's type
		samples     [][]byte
		strs        []string
		locLines    = map[uint64][]uint64{} // location -> function IDs, innermost first
		funcName    = map[uint64]int64{}    // function -> string-table index
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case profSampleType:
			var typ int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				if f == valueTypeType {
					typ = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, typ)
			return err
		case profSample:
			samples = append(samples, b)
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == lineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}

	// Weigh samples by CPU time when the profile carries it; otherwise
	// by the last value, as pprof does by default.
	valueIdx := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no sample types")
	}

	weights := map[string]float64{}
	var total float64
	for _, sb := range samples {
		var locs []uint64
		var vals []int64
		err := eachField(sb, func(f int, v uint64, b []byte) error {
			switch f {
			case sampleLocationID:
				if b == nil {
					locs = append(locs, v)
					return nil
				}
				return eachPacked(b, func(v uint64) { locs = append(locs, v) })
			case sampleValue:
				if b == nil {
					vals = append(vals, int64(v))
					return nil
				}
				return eachPacked(b, func(v uint64) { vals = append(vals, int64(v)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if valueIdx >= len(vals) {
			return nil, errors.New("profile: sample lacks the chosen value")
		}
		w := float64(vals[valueIdx])
		mod := "runtime"
	frames:
		for _, l := range locs {
			for _, fn := range locLines[l] {
				if m := moduleOf(str(funcName[fn])); m != "" {
					mod = m
					break frames
				}
			}
		}
		weights[mod] += w
		total += w
	}
	if total > 0 {
		for k := range weights {
			weights[k] /= total
		}
	}
	return weights, nil
}

// eachField walks the fields of one protobuf message. For varint
// fields b is nil; for length-delimited fields v is 0 and b holds the
// payload. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// eachPacked walks a packed repeated varint field.
func eachPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		b = b[n:]
		fn(v)
	}
	return nil
}
