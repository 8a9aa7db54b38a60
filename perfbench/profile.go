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

// The layers inside the simulator cannot be spanned without changing the
// program, so the traced run takes a runtime/pprof CPU profile and charges
// each sample to the innermost frame that belongs to a named layer. Runtime
// and standard-library helpers (map lookups, copies, allocation) are charged
// to the layer that called them; samples with no layer frame at all, such as
// the garbage collector's background workers, are charged to "runtime".
// JSON and HTTP work on a goroutine of the benchmark's own (the serve
// clients) is charged to the benchmark, not to the service.

// layerPackages maps a package path to the layer its samples are charged
// to. The benchmark's own package is a layer too, so client work in the
// serve workload is not charged to the service.
var layerPackages = map[string]string{
	"atcsim/internal/cpu":                "cpu",
	"atcsim/internal/tlb":                "tlb",
	"atcsim/internal/ptw":                "ptw",
	"atcsim/internal/vm":                 "vm",
	"atcsim/internal/xlat":               "xlat",
	"atcsim/internal/cache":              "cache",
	"atcsim/internal/repl":               "repl",
	"atcsim/internal/prefetch":           "prefetch",
	"atcsim/internal/dram":               "dram",
	"atcsim/internal/system":             "system",
	"atcsim/internal/trace":              "trace",
	"atcsim/internal/mem":                "mem",
	"atcsim/internal/stats":              "stats",
	"atcsim/internal/workloads":          "workloads",
	"atcsim/internal/experiments":        "experiments",
	"atcsim/internal/experiments/runner": "experiments",
	"atcsim/internal/simserver":          "simserver",
	"encoding/json":                      "json",
	"net/http":                           "http",
	"main":                               "perfbench",
}

// simLayers are the layers that model the machine; profile.model_layers_pct
// reports how much of the time under a simulation they account for.
var simLayers = []string{"cpu", "tlb", "ptw", "vm", "xlat", "cache", "repl", "prefetch", "dram", "system"}

// funcPackage returns the package path of a fully qualified Go function
// name such as "atcsim/internal/cache.(*Cache).Access". Receiver types and type arguments may themselves hold package paths, so
// the search stops at the first "(" or "[".
func funcPackage(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	dot := strings.Index(head[slash+1:], ".")
	if dot < 0 {
		return head
	}
	return head[:slash+1+dot]
}

// stackSample is one profile sample: its frames from the leaf outward, and
// the CPU time it stands for.
type stackSample struct {
	frames []string
	ns     int64
}

// attribution is a CPU profile charged to layers.
type attribution struct {
	totalNS  int64
	layerNS  map[string]int64
	simNS    int64 // samples with a system-package frame: time inside a simulation
	simLayer int64 // of those, time charged to simLayers
}

// attribute charges every sample to its innermost layer frame.
func attribute(samples []stackSample) attribution {
	a := attribution{layerNS: map[string]int64{}}
	sim := map[string]bool{}
	for _, l := range simLayers {
		sim[l] = true
	}
	for _, s := range samples {
		layer := "runtime"
		for _, fn := range s.frames {
			if l, ok := layerPackages[funcPackage(fn)]; ok {
				layer = l
				break
			}
		}
		underSim, underBench := false, false
		for _, fn := range s.frames {
			switch funcPackage(fn) {
			case "atcsim/internal/system":
				underSim = true
			case "main":
				underBench = true
			}
		}
		if underBench && (layer == "json" || layer == "http") {
			layer = "perfbench"
		}
		a.totalNS += s.ns
		a.layerNS[layer] += s.ns
		if underSim {
			a.simNS += s.ns
			if sim[layer] {
				a.simLayer += s.ns
			}
		}
	}
	return a
}

// pct returns a layer's share of all sampled CPU time, in percent.
func (a attribution) pct(layer string) float64 {
	return 100 * ratio(float64(a.layerNS[layer]), float64(a.totalNS))
}

// parseProfile decodes the samples of a gzip-compressed pprof CPU profile
// as runtime/pprof writes it. Only the fields attribution needs are read:
// each sample's location ids and CPU nanoseconds, each location's (inlined)
// function ids, and each function's name.
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
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
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string table index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2: // Sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					for _, x := range appendPacked(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case num == 4 && wire == 2: // Location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && wire == 2: // Line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case num == 5 && wire == 2: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
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
		case num == 6 && wire == 2: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile: sample without a CPU time value")
		}
		var frames []string
		for _, loc := range s.locs {
			for _, f := range locFuncs[loc] {
				if i := funcNames[f]; i >= 0 && int(i) < len(strs) {
					frames = append(frames, strs[i])
				}
			}
		}
		out = append(out, stackSample{frames: frames, ns: s.values[1]})
	}
	return out, nil
}

// appendPacked appends a repeated integer field, packed (wire type 2) or
// not, to dst.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
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

// eachField walks the fields of one protobuf message, passing varints in v
// and length-delimited payloads in b.
func eachField(msg []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
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
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
