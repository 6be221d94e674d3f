package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// profPackages are the layers a CPU-profile sample can be charged to:
// repository packages, plus "gc" for runtime collector work outside them.
var profPackages = []string{"des", "simnet", "allreduce", "sparse", "data", "engine", "vec", "glm", "serve", "obs", "gc"}

// profileShares parses a CPU profile (gzipped pprof protobuf, as
// runtime/pprof writes it) and charges each sample to its innermost frame
// in a repository package. Samples with no repository frame go to "gc" when
// a collector frame is on the stack, and otherwise to nothing. Shares are
// over all samples.
func profileShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		v := 1.0
		if len(s.values) > 0 {
			v = float64(s.values[0])
		}
		total += v
		if pkg := p.owner(s.locs); pkg != "" {
			counts[pkg] += v
		}
	}
	out := map[string]float64{}
	if total == 0 {
		return out, nil
	}
	for pkg, c := range counts {
		out[pkg] = c / total
	}
	return out, nil
}

const repoPrefix = "mllibstar/internal/"

// owner returns the layer a stack (leaf first) is charged to.
func (p *profile) owner(locs []uint64) string {
	gc := false
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] { // innermost inlined frame first
			name := p.funcName[fn]
			if rest, ok := strings.CutPrefix(name, repoPrefix); ok {
				pkg, _, _ := strings.Cut(rest, ".")
				pkg, _, _ = strings.Cut(pkg, "/")
				return pkg
			}
			if strings.HasPrefix(name, "runtime.gcBgMarkWorker") || strings.HasPrefix(name, "runtime.gcAssist") ||
				strings.HasPrefix(name, "runtime.bgsweep") || strings.HasPrefix(name, "runtime.bgscavenge") {
				gc = true
			}
		}
	}
	if gc {
		return "gc"
	}
	return ""
}

// profile is the part of a pprof protobuf the shares need.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]string
}

type sample struct {
	locs   []uint64
	values []int64
}

// Field numbers of the pprof profile.proto messages.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	err := walk(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case profSample:
			var s sample
			err := walk(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case sampleLocation:
					s.locs = appendVarints(s.locs, w, v, d)
				case sampleValue:
					for _, x := range appendVarints(nil, w, v, d) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := walk(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return walk(d, func(f, w int, v uint64, _ []byte) error {
						if f == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := walk(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case profStrings:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx < uint64(len(strs)) {
			p.funcName[id] = strs[idx]
		}
	}
	return p, nil
}

// appendVarints appends a repeated uint64 field's values, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// walk calls fn for every field of a protobuf message: v carries varint
// values, data the bytes of length-delimited fields.
func walk(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
