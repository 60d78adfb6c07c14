package bench

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file is a minimal reader for the gzip-compressed profile.proto that
// runtime/pprof writes — just enough to fold CPU samples by package, so the
// benchmark needs no module dependency and no `go tool pprof` at run time.
// Field numbers are profile.proto's.

// protoField is one decoded top-level field of a message.
type protoField struct {
	num    int
	varint uint64 // wire type 0
	bytes  []byte // wire type 2
}

var errProto = errors.New("pprof: malformed protobuf")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// eachField calls fn for every field of the message in b.
func eachField(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		b = rest
		f := protoField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.varint, b, err = readVarint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil || uint64(len(rest)) < n {
				return errProto
			}
			f.bytes, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// repeatedUint appends a repeated integer field's values, packed or not.
func repeatedUint(dst []uint64, f protoField) ([]uint64, error) {
	if f.bytes == nil {
		return append(dst, f.varint), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// profSample is one stack sample: location IDs leaf first, and its weight.
type profSample struct {
	locs   []uint64
	weight int64
}

// parseProfile decodes a CPU profile into samples and a resolver from
// location ID to the function names at that location, innermost first.
func parseProfile(data []byte) ([]profSample, map[uint64][]string, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("pprof: %w", err)
	}

	var samples []profSample
	var strtab []string
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string index
	err = eachField(raw, func(f protoField) error {
		switch f.num {
		case 2: // Sample
			var s profSample
			var values []uint64
			if err := eachField(f.bytes, func(g protoField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = repeatedUint(s.locs, g)
				case 2:
					values, err = repeatedUint(values, g)
				}
				return err
			}); err != nil {
				return err
			}
			// CPU profiles carry [samples, cpu nanoseconds]; weigh by the
			// last value.
			if len(values) > 0 {
				s.weight = int64(values[len(values)-1])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(f.bytes, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.varint
				case 4: // Line
					return eachField(g.bytes, func(h protoField) error {
						if h.num == 1 {
							fns = append(fns, h.varint)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := eachField(f.bytes, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.varint
				case 2:
					name = g.varint
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	names := make(map[uint64][]string, len(locFuncs))
	for id, fns := range locFuncs {
		for _, fn := range fns {
			if idx := funcName[fn]; idx < uint64(len(strtab)) {
				names[id] = append(names[id], strtab[idx])
			}
		}
	}
	return samples, names, nil
}

// gcFrames mark a stack as garbage-collector work, whether on a background
// worker or as an allocation assist.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.gcStart",
}

// bucketOf attributes one stack (frames innermost first) to a prof.* bucket:
// the collector, the allocator, or the package of the innermost Norman
// frame — so runtime helpers (map access, memmove, growslice) count towards
// the layer that called them.
func bucketOf(frames []string) string {
	malloc := false
	pkg := ""
	for _, fn := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "runtime_gc"
			}
		}
		if strings.HasPrefix(fn, "runtime.mallocgc") {
			malloc = true
		}
		if pkg == "" && strings.HasPrefix(fn, "norman/") {
			rest := strings.TrimPrefix(strings.TrimPrefix(fn, "norman/"), "internal/")
			if strings.HasPrefix(rest, "bench") {
				pkg = "bench"
			} else if i := strings.IndexByte(rest, '.'); i > 0 {
				pkg = rest[:i]
			}
		}
	}
	switch {
	case malloc:
		return "runtime_malloc"
	case pkg != "":
		return pkg
	}
	return "other"
}

// foldProfile adds a CPU profile's sample weights to buckets and returns
// the total weight added.
func foldProfile(data []byte, buckets map[string]int64) (int64, error) {
	samples, names, err := parseProfile(data)
	if err != nil {
		return 0, err
	}
	var total int64
	var frames []string
	for _, s := range samples {
		frames = frames[:0]
		for _, loc := range s.locs {
			frames = append(frames, names[loc]...)
		}
		buckets[bucketOf(frames)] += s.weight
		total += s.weight
	}
	return total, nil
}
