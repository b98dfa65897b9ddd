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

// internalPrefix is the import-path prefix of the program's packages; the
// first path element after it names the layer a CPU sample is charged to.
const internalPrefix = "nostop/internal/"

// runtimeLayer is the layer charged with samples that have no program frame:
// the garbage collector's workers, the scheduler, and the benchmark itself.
const runtimeLayer = "runtime"

// layerOf names the layer a sample belongs to: the package of its innermost
// nostop/internal/<pkg> frame. frames lists function names leaf first, so a
// standard-library or runtime call made by a program package is charged to
// that package. A sub-package is charged to its top-level package.
func layerOf(frames []string) string {
	for _, fn := range frames {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		if rest != "" {
			return rest
		}
	}
	return runtimeLayer
}

// profileSample is one decoded pprof sample: its stack, leaf first, and the
// number of CPU samples it stands for.
type profileSample struct {
	frames []string
	count  int64
}

// foldProfile charges every sample of a gzipped pprof CPU profile to its
// layer and returns the sample count per layer and in total.
func foldProfile(data []byte) (map[string]int64, int64, error) {
	samples, err := decodeProfile(data)
	if err != nil {
		return nil, 0, err
	}
	layers := map[string]int64{}
	var total int64
	for _, s := range samples {
		layers[layerOf(s.frames)] += s.count
		total += s.count
	}
	return layers, total, nil
}

// errProfile reports a profile that is not a well-formed pprof message.
var errProfile = errors.New("malformed pprof profile")

// decodeProfile reads the samples of a gzipped pprof profile
// (github.com/google/pprof/proto/profile.proto) with only the standard
// library. It keeps the fields a fold needs: the sample stacks and first
// sample values, the locations with their (possibly inlined) lines, the
// function names, and the string table.
func decodeProfile(data []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		value []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string-table index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					return appendVarints(&s.value, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		if len(s.value) == 0 {
			return nil, errProfile
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx, ok := funcNames[fn]
				if !ok || idx < 0 || idx >= int64(len(strs)) {
					return nil, errProfile
				}
				frames = append(frames, strs[idx])
			}
		}
		out = append(out, profileSample{frames: frames, count: int64(s.value[0])})
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. fn receives the field
// number and either the varint value (wire type 0) or the payload (wire
// type 2); fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var payload []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProfile
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			b = b[4:]
			continue
		default:
			return errProfile
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// value (wire type 0) or a packed run (payload non-nil).
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errProfile
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
