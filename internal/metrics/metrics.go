// Package metrics is the runtime's observability substrate: a stdlib-only,
// allocation-light registry of atomic counters, gauges and fixed-bucket
// histograms, rendered in the Prometheus text exposition format.
//
// Instruments are resolved once (typically at construction time) and held
// as pointers; the hot-path operations — Counter.Add, Gauge.Set,
// Histogram.Observe — are single atomic operations with no locking and no
// allocation, so they are safe to call from round fan-outs and HTTP
// handlers under -race.
//
// # Determinism rule
//
// Metrics are observability-only: nothing in the federation's decision
// path may ever read them. Counters of rounds, uploads, bytes and verdicts
// are deterministic for a fixed seed; duration histograms carry wall-clock
// values and therefore vary run to run — they exist to be scraped, not
// consumed. The loopback equivalence test runs with metrics enabled to
// prove they do not perturb results.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Default is the process-wide registry components fall back to when no
// explicit registry is supplied (mirroring net/http's DefaultServeMux).
// Tests that assert exact values should pass their own New() registry.
var Default = New()

// DefBuckets are the default histogram bounds for durations in seconds,
// spanning sub-millisecond codec calls to multi-second training rounds.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n (negative n is ignored — counters only
// go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by v.
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution: observations land in the first
// bucket whose upper bound is >= the value, with an implicit +Inf bucket.
// Bounds are fixed at registration; Observe is lock-free.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
}

// ObserveSince records the wall-clock seconds elapsed since start.
// Durations are observability-only — see the package determinism rule.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// addFloat atomically adds v to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Registry holds named instruments. Lookup (Counter, Gauge, Histogram)
// takes a mutex and may allocate the series key — do it once at wiring
// time and keep the returned pointer; the instruments themselves are
// lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	types    map[string]string // family -> counter|gauge|histogram
	help     map[string]string // family -> HELP text
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		types:    make(map[string]string),
		help:     make(map[string]string),
	}
}

// Counter returns (creating on first use) the counter for name and the
// given label key/value pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	k := Key(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
		r.recordType(name, "counter")
	}
	return c
}

// Gauge returns (creating on first use) the gauge for name and labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	k := Key(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
		r.recordType(name, "gauge")
	}
	return g
}

// Histogram returns (creating on first use) the histogram for name and
// labels. Bounds must be sorted ascending; they apply on first creation
// only — later lookups of the same series keep the original bounds.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	k := Key(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		if len(bounds) == 0 {
			bounds = DefBuckets
		}
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
		r.hists[k] = h
		r.recordType(name, "histogram")
	}
	return h
}

// Help attaches HELP text to a metric family.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[sanitizeName(name)] = text
}

// recordType notes a family's type (first registration wins). Caller holds
// the lock.
func (r *Registry) recordType(name, typ string) {
	fam := sanitizeName(name)
	if _, ok := r.types[fam]; !ok {
		r.types[fam] = typ
	}
}

// Reset zeroes every instrument, keeping registrations (and the pointers
// callers hold) valid.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
		h.count.Store(0)
		h.sum.Store(0)
	}
}

// HistogramSnapshot is one histogram's frozen state. Counts are
// per-bucket (not cumulative); Counts[len(Bounds)] is the +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Snapshot is a frozen, copyable view of a registry, keyed by the full
// series key (name plus rendered labels).
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// CounterValue looks up a counter by name and labels (0 if absent).
func (s Snapshot) CounterValue(name string, labels ...string) int64 {
	return s.Counters[Key(name, labels...)]
}

// Snapshot freezes the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.buckets)),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
		for i := range h.buckets {
			hs.Counts[i] = h.buckets[i].Load()
		}
		s.Histograms[k] = hs
	}
	return s
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, each with its TYPE (and
// HELP, when set) header, series sorted within a family, histogram buckets
// cumulative with the +Inf bucket. The output is deterministic for a fixed
// registry state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	r.mu.Lock()
	types := make(map[string]string, len(r.types))
	help := make(map[string]string, len(r.help))
	for k, v := range r.types {
		types[k] = v
	}
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	type series struct{ key, text string }
	families := make(map[string][]series)
	add := func(key, text string) {
		fam := familyOf(key)
		families[fam] = append(families[fam], series{key, text})
	}
	for k, v := range snap.Counters {
		add(k, fmt.Sprintf("%s %d\n", k, v))
	}
	for k, v := range snap.Gauges {
		add(k, fmt.Sprintf("%s %g\n", k, v))
	}
	for k, h := range snap.Histograms {
		var b strings.Builder
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(&b, "%s %d\n", bucketKey(k, fmt.Sprintf("%g", bound)), cum)
		}
		cum += h.Counts[len(h.Bounds)]
		fmt.Fprintf(&b, "%s %d\n", bucketKey(k, "+Inf"), cum)
		fmt.Fprintf(&b, "%s %g\n", suffixKey(k, "_sum"), h.Sum)
		fmt.Fprintf(&b, "%s %d\n", suffixKey(k, "_count"), h.Count)
		add(k, b.String())
	}

	names := make([]string, 0, len(families))
	for fam := range families {
		names = append(names, fam)
	}
	sort.Strings(names)
	for _, fam := range names {
		if h, ok := help[fam]; ok {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam, h); err != nil {
				return err
			}
		}
		typ := types[fam]
		if typ == "" {
			typ = "untyped"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, typ); err != nil {
			return err
		}
		ss := families[fam]
		sort.Slice(ss, func(i, j int) bool { return ss[i].key < ss[j].key })
		for _, s := range ss {
			if _, err := io.WriteString(w, s.text); err != nil {
				return err
			}
		}
	}
	return nil
}

// Key renders a series key from a metric name and alternating label
// key/value pairs: `name{k="v",k2="v2"}`. Names and label keys are
// sanitized to the Prometheus charset; label values are escaped. A
// trailing unpaired label is ignored.
func Key(name string, labels ...string) string {
	name = sanitizeName(name)
	if len(labels) < 2 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sanitizeName(labels[i]))
		b.WriteString(`="`)
		b.WriteString(escapeValue(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// familyOf strips the label block from a series key.
func familyOf(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// bucketKey splices an le label into a histogram series key and appends
// the _bucket suffix to its family.
func bucketKey(key, le string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i] + "_bucket" + key[i:len(key)-1] + `,le="` + le + `"}`
	}
	return key + `_bucket{le="` + le + `"}`
}

// suffixKey appends a family suffix (e.g. _sum) to a series key, keeping
// its labels.
func suffixKey(key, suffix string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i] + suffix + key[i:]
	}
	return key + suffix
}

// sanitizeName maps a string onto the Prometheus metric-name charset
// [a-zA-Z0-9_:], replacing other runes with '_' and prefixing a leading
// digit.
func sanitizeName(s string) string {
	ok := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' || (c >= '0' && c <= '9' && i > 0) {
			continue
		}
		ok = false
		break
	}
	if ok && s != "" {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// escapeValue escapes a label value per the exposition format.
func escapeValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
