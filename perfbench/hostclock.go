package main

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// The benchmark runs on shared hosts whose speed changes as neighbours come
// and go: on the host it was defined on, the same simulation took 1.8 times
// as long as a few minutes later, and the change moves whole runs.
// To keep the end-to-end times comparable between runs, every measured
// phase also times a fixed reference kernel between operations, about
// refShare of the phase, and scales its times by how fast the kernel ran:
//
//	factor = median(kernel ms) / refNominalMS
//	reported time = measured time / factor, reported rate = measured rate * factor
//
// The kernel is the benchmark's own code, so a change to the program moves
// the reported figures exactly as much as the measured ones, while a host
// that runs everything slower for a while moves neither. The kernel
// models a set-associative LRU cache over a pseudo-random address stream,
// so it competes for the same core resources (branches, L1/L2, loads) the
// simulator does, and slows down with it. The measured figures and the
// factor are printed beside the result.

// refNominalMS is about the reference kernel's median time, in ms, on the
// host the benchmark was defined on (2 vCPUs of a 2.1 GHz Xeon under KVM),
// where it ranged from 5.7 to 11.3 ms as the host's load changed. Reported
// times read as if measured on that host with the kernel at this time.
const refNominalMS = 10.0

// refShare is the share of a phase's time spent in the reference kernel.
const refShare = 0.04

const (
	refSets   = 1 << 13
	refWays   = 8
	refAccess = 150_000
)

// hostClock samples the reference kernel during a phase.
type hostClock struct {
	mu     sync.Mutex
	last   time.Time
	tags   []uint64
	age    []uint8
	sink   uint64
	sample []float64 // kernel times in ms
}

func newHostClock() *hostClock {
	h := &hostClock{tags: make([]uint64, refSets*refWays), age: make([]uint8, refSets*refWays)}
	h.kernel() // first touch of the tables, untimed
	h.last = time.Now()
	return h
}

// tick runs the kernel as often as keeps it at refShare of the time since
// the last sample. A client that finds another sampling goes on at once.
func (h *hostClock) tick() {
	if !h.mu.TryLock() {
		return
	}
	defer h.mu.Unlock()
	since := time.Since(h.last).Seconds() * 1000
	n := int(since * refShare / refNominalMS)
	h.run(min(n, 16))
	if n > 0 {
		h.last = time.Now()
	}
}

// sampleN runs the kernel n times.
func (h *hostClock) sampleN(n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.run(n)
}

// run times n runs of the kernel; the caller holds h.mu.
func (h *hostClock) run(n int) {
	for i := 0; i < n; i++ {
		start := time.Now()
		h.sink += h.kernel()
		h.sample = append(h.sample, float64(time.Since(start).Nanoseconds())/1e6)
	}
}

// factor is how much slower than nominal the host ran the kernel over the
// phase; 1 when nothing was sampled.
func (h *hostClock) factor() (f float64, samples int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.sample) == 0 {
		return 1, 0
	}
	return median(h.sample) / refNominalMS, len(h.sample)
}

// kernel runs refAccess accesses of a pseudo-random address stream, a
// quarter of them confined to a hot 64 KiB region, through an 8-way LRU
// cache of refSets sets, and returns the number of hits.
func (h *hostClock) kernel() uint64 {
	var x, hits uint64 = 12345, 0
	for i := 0; i < refAccess; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := (x >> 33) % (1 << 20)
		if x&(3<<60) == 0 {
			addr &= 0xffff
		}
		base := int(addr%refSets) * refWays
		tag := addr / refSets
		way := -1
		for w := 0; w < refWays; w++ {
			if h.tags[base+w] == tag {
				way = w
				break
			}
		}
		if way >= 0 {
			hits++
		} else {
			way = 0
			for w := 1; w < refWays; w++ {
				if h.age[base+w] > h.age[base+way] {
					way = w
				}
			}
			h.tags[base+way] = tag
		}
		for w := 0; w < refWays; w++ {
			if h.age[base+w] < math.MaxUint8 {
				h.age[base+w]++
			}
		}
		h.age[base+way] = 0
	}
	return hits
}

// describe is the human-readable line about a phase's host speed.
func (h *hostClock) describe() string {
	f, n := h.factor()
	return fmt.Sprintf("host: reference kernel took %.3f ms (median of %d samples; %.1f ms nominal), host factor %.4f",
		f*refNominalMS, n, refNominalMS, f)
}
