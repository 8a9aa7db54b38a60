// Package metrics is the simulator's unified, allocation-free metrics
// layer: a typed registry of counters, gauges and bounded histograms with
// hierarchical names and labels (`cache_misses_total{level="llc"}`),
// exposed as Prometheus/OpenMetrics text by a small HTTP server (/metrics,
// /healthz, /runs, /flightrecorder, /debug/pprof/).
//
// Design rules, in descending order of importance:
//
//   - The hot path never pays for observability. Registry-owned series are
//     single atomic words bumped with one instruction and zero heap
//     allocations; simulator-internal counters stay plain uint64 fields and
//     are folded into the registry only at snapshot boundaries (end of run,
//     heartbeat tick) — never per access.
//   - Everything is nil-safe. A nil *Counter, *Gauge, *Histogram, *RunTable
//     or *FlightRecorder is a no-op, so components hold possibly-nil handles
//     and skip instrumentation with one predictable branch.
//   - Reads never block writes for long: registration takes a write lock,
//     Gather a read lock, and the series values themselves are atomics, so a
//     scrape concurrent with a sweep observes a consistent-enough snapshot
//     without stalling workers.
//
// Naming follows the Prometheus conventions: snake_case families,
// `_total` suffix on counters, unit suffixes (`_seconds`, `_bytes`) where
// applicable, and label values carrying the hierarchy dimension
// (level/kind/outcome) rather than baked-in name variants.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the exposition type of a series family.
type Kind uint8

// Series kinds, matching the OpenMetrics type vocabulary.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the OpenMetrics type name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Label is one name="value" dimension of a series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// series is one registered time series. The value is either an atomic word
// (val) or a read-callback (fn); exactly one is active.
type series struct {
	family string // family name (counter families exclude the _total suffix)
	full   string // fully-rendered sample name with labels
	kind   Kind
	val    atomic.Uint64 // counters: count; gauges: math.Float64bits
	fn     func() float64
	hist   *Histogram
}

// Counter is a monotonically-increasing series backed by one atomic word.
// All methods are nil-safe and allocation-free.
type Counter struct{ s *series }

// Inc adds 1.
func (c Counter) Inc() { c.Add(1) }

// Add increments the counter by n.
func (c Counter) Add(n uint64) {
	if c.s != nil {
		c.s.val.Add(n)
	}
}

// Value returns the current count.
func (c Counter) Value() uint64 {
	if c.s == nil {
		return 0
	}
	return c.s.val.Load()
}

// Gauge is a set-to-current-value series backed by one atomic word holding
// float64 bits. All methods are nil-safe and allocation-free.
type Gauge struct{ s *series }

// Set stores v as the gauge's current value.
func (g Gauge) Set(v float64) {
	if g.s != nil {
		g.s.val.Store(math.Float64bits(v))
	}
}

// SetUint is Set for integral values.
func (g Gauge) SetUint(v uint64) { g.Set(float64(v)) }

// Value returns the gauge's current value.
func (g Gauge) Value() float64 {
	if g.s == nil {
		return 0
	}
	return math.Float64frombits(g.s.val.Load())
}

// Histogram is a bounded-bucket distribution: observations bump one atomic
// bucket counter plus the sum/count words, so the hot path stays
// allocation-free; bucket aggregation happens only at exposition time.
// Bounds are upper bucket edges; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1, last is +Inf
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits accumulated via CAS
}

// Observe records one sample. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Registry holds every registered series. Registration is idempotent: a
// second registration of the same name+labels returns the existing series,
// so independent components can share families without coordination.
type Registry struct {
	mu     sync.RWMutex
	series map[string]*series // by full sample name
	order  []string           // registration order of full names
	helps  map[string]string  // per-family help text (first writer wins)
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{series: make(map[string]*series)}
}

// renderName builds the full sample name. Labels are sorted by key so the
// same logical series always renders identically.
func renderName(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// familyOf strips the counter sample suffix so `x_total` exposes under
// family `x`, per the OpenMetrics counter convention.
func familyOf(name string, kind Kind) string {
	if kind == KindCounter {
		return strings.TrimSuffix(name, "_total")
	}
	return name
}

// register adds (or finds) a series. A name registered twice with a
// different kind panics: that is a programming error, not a runtime
// condition.
func (r *Registry) register(name, help string, kind Kind, labels []Label) *series {
	full := renderName(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[full]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", full, kind, s.kind))
		}
		return s
	}
	s := &series{family: familyOf(name, kind), full: full, kind: kind}
	r.series[full] = s
	r.order = append(r.order, full)
	r.help(s.family, help)
	return s
}

// help records a family's help string (first writer wins); callers hold mu.
func (r *Registry) help(family, help string) {
	if help == "" {
		return
	}
	if r.helps == nil {
		r.helps = make(map[string]string)
	}
	if _, ok := r.helps[family]; !ok {
		r.helps[family] = help
	}
}

// Counter registers (or finds) a counter. Counter names must end in
// "_total" so the exposition obeys the OpenMetrics counter convention.
func (r *Registry) Counter(name, help string, labels ...Label) Counter {
	if !strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("metrics: counter %q must end in _total", name))
	}
	return Counter{s: r.register(name, help, KindCounter, labels)}
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) Gauge {
	return Gauge{s: r.register(name, help, KindGauge, labels)}
}

// CounterFunc registers a counter whose value is read from fn at gather
// time. fn must be safe for concurrent use (e.g. read atomics only) — it is
// called from the scrape goroutine.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if !strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("metrics: counter %q must end in _total", name))
	}
	r.register(name, help, KindCounter, labels).fn = fn
}

// GaugeFunc registers a gauge whose value is read from fn at gather time.
// fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, KindGauge, labels).fn = fn
}

// NewHistogram registers a bounded histogram with the given upper bucket
// bounds (ascending; an implicit +Inf bucket is appended).
func (r *Registry) NewHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.register(name, help, KindHistogram, labels)
	if s.hist == nil {
		s.hist = &Histogram{
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Uint64, len(bounds)+1),
		}
	}
	return s.hist
}

// Sample is one gathered series value.
type Sample struct {
	// Name is the fully-rendered sample name including labels.
	Name string
	// Family is the series' family name (no _total suffix, no labels).
	Family string
	Kind   Kind
	Value  float64
	// Hist is non-nil for histogram samples; Value is then the count.
	Hist *Histogram
}

// Gather returns every series' current value in registration order.
func (r *Registry) Gather() []Sample {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Sample, 0, len(r.order))
	for _, full := range r.order {
		s := r.series[full]
		smp := Sample{Name: s.full, Family: s.family, Kind: s.kind, Hist: s.hist}
		switch {
		case s.fn != nil:
			smp.Value = s.fn()
		case s.kind == KindGauge:
			smp.Value = math.Float64frombits(s.val.Load())
		case s.hist != nil:
			smp.Value = float64(s.hist.Count())
		default:
			smp.Value = float64(s.val.Load())
		}
		out = append(out, smp)
	}
	return out
}

// Len returns the number of registered series.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.series)
}
