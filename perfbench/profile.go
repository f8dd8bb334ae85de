package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stackSample is one CPU-profile sample: its call stack, innermost
// frame first, and its value (CPU nanoseconds).
type stackSample struct {
	frames []string
	value  int64
}

// parseProfile decodes a gzip-compressed pprof protobuf profile, as
// runtime/pprof writes it, into stacks of function names. Inlined
// calls appear as their own frames.
func parseProfile(r io.Reader) ([]stackSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples  []rawSample
		strs     []string
		funcName = map[uint64]int64{}    // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
		fieldErr error                   // first error inside a nested message
	)
	setErr := func(err error) {
		if fieldErr == nil {
			fieldErr = err
		}
	}
	err = walkProto(data, func(field, wire int, v uint64, b []byte) {
		if fieldErr != nil {
			return
		}
		switch field {
		case 2: // sample
			var s rawSample
			setErr(walkProto(b, func(f, w int, v uint64, b []byte) {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
			}))
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			setErr(walkProto(b, func(f, w int, v uint64, b []byte) {
				switch f {
				case 1:
					id = v
				case 4: // line
					var fid uint64
					setErr(walkProto(b, func(f, w int, v uint64, b []byte) {
						if f == 1 {
							fid = v
						}
					}))
					fns = append(fns, fid)
				}
			}))
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			setErr(walkProto(b, func(f, w int, v uint64, b []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
	})
	if err == nil {
		err = fieldErr
	}
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ss := stackSample{value: s.values[len(s.values)-1]}
		for _, l := range s.locs {
			for _, fid := range locFuncs[l] {
				name := "?"
				if i := funcName[fid]; i >= 0 && int(i) < len(strs) {
					name = strs[i]
				}
				ss.frames = append(ss.frames, name)
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// walkProto calls fn for every field of one protobuf message: varint
// fields pass their value, length-delimited fields their bytes.
func walkProto(b []byte, fn func(field, wire int, v uint64, b []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			fn(field, wire, v, nil)
		case 1:
			if len(b) < 8 {
				return errProto
			}
			fn(field, wire, binary.LittleEndian.Uint64(b), nil)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			fn(field, wire, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			fn(field, wire, uint64(binary.LittleEndian.Uint32(b)), nil)
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendVarints appends a repeated integer field in either its plain
// (one varint) or packed (length-delimited run of varints) encoding.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// shareNames are the profile buckets; together they sum to 1.
var shareNames = []string{
	"sim.readyqueue_share", "sim.issue_share", "sim.rest_share",
	"memsys.bw_share", "memsys.cache_share", "memsys.pagetable_share", "memsys.rest_share",
	"interconnect.share", "core.share", "runner.share",
	"harness.share", "silicon.share", "calib.share",
	"resultcache.share", "service.share", "service.http_json_share",
	"runtime.gc_share", "other.share",
}

// attribute splits CPU time into the layer buckets. A sample that is
// garbage-collector work anywhere in its stack is GC. Otherwise it
// belongs to the innermost frame that names a layer, so runtime and
// standard-library helpers count toward the layer that called them;
// samples with no layer frame are other.
func attribute(samples []stackSample) map[string]float64 {
	out := make(map[string]float64, len(shareNames))
	for _, n := range shareNames {
		out[n] = 0
	}
	var total float64
	for _, s := range samples {
		total += float64(s.value)
		out[bucketOf(s.frames)] += float64(s.value)
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
	}
	return out
}

func bucketOf(frames []string) string {
	for _, f := range frames {
		if isGC(f) {
			return "runtime.gc_share"
		}
	}
	for _, f := range frames {
		if b := layerOf(f); b != "" {
			return b
		}
	}
	return "other.share"
}

func isGC(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot", "runtime.scanobject":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// layerOf maps one function name to its bucket, or "" when the function
// belongs to no layer (runtime, standard library, the benchmark).
func layerOf(fn string) string {
	pkg, recv := splitFunc(fn)
	if strings.HasPrefix(pkg, "net/http") || pkg == "encoding/json" {
		return "service.http_json_share"
	}
	mod, ok := strings.CutPrefix(pkg, "gpujoule/internal/")
	if !ok {
		return ""
	}
	switch mod {
	case "sim":
		switch recv {
		case "readyQueue":
			return "sim.readyqueue_share"
		case "smState":
			return "sim.issue_share"
		}
		return "sim.rest_share"
	case "memsys":
		switch recv {
		case "BWResource":
			return "memsys.bw_share"
		case "Cache":
			return "memsys.cache_share"
		case "PageTable":
			return "memsys.pagetable_share"
		}
		return "memsys.rest_share"
	case "interconnect":
		return "interconnect.share"
	case "core", "obs", "metrics", "dvfs":
		return "core.share"
	case "runner":
		return "runner.share"
	case "harness", "stats", "bottomup":
		return "harness.share"
	case "silicon":
		return "silicon.share"
	case "calib", "microbench":
		return "calib.share"
	case "resultcache":
		return "resultcache.share"
	case "service", "profiling":
		return "service.share"
	}
	return ""
}

// splitFunc splits a symbol such as
// "gpujoule/internal/sim.(*readyQueue).fixIfQueued" into its package
// path and the receiver type or top-level name after it ("readyQueue").
func splitFunc(fn string) (pkg, recv string) {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn, ""
	}
	pkg, rest := fn[:slash+1+dot], fn[slash+2+dot:]
	if strings.HasPrefix(rest, "(*") {
		if end := strings.Index(rest, ")"); end > 0 {
			return pkg, rest[2:end]
		}
	}
	if i := strings.IndexAny(rest, ".["); i >= 0 {
		rest = rest[:i]
	}
	return pkg, rest
}
