// Package obs is the simulator's observability layer: a dependency-free
// metrics registry (atomic counters and gauges, fixed-bucket
// histograms over stats.Histogram), lightweight wall-time spans, a
// periodic JSONL snapshot exporter, and a live one-line campaign
// progress reporter.
//
// Everything is built around a single invariant: a nil *Registry — and
// every instrument handed out by one — is a complete no-op that
// performs zero allocations and zero atomic operations. Packages
// therefore instrument unconditionally (`c.Inc()` on a possibly-nil
// *Counter) and pay nothing when observability is disabled, which is
// the common case for the replay hot loop.
//
// Counters and gauges are single atomics. A histogram takes its own
// mutex per Observe; it is observed once per stackd request or per
// published latency bucket, never per record. Spans and registration
// take a mutex too; they run once per phase, not per record.
package obs

import (
	"math"
	"sync"
	"sync/atomic"

	"diestack/internal/stats"
)

// Counter is a monotonically increasing metric. The zero value is
// usable; a nil Counter is a no-op.
type Counter struct {
	n atomic.Uint64
}

// Add increments the counter by n. Safe for concurrent use; a no-op on
// a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count, or 0 for a nil counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a last-value metric (queue depth, current peak temperature).
// A nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value (0 for a nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is the registry's handle on one stats.Histogram, which
// owns the bucket layout and the clamping, behind a mutex (see the
// package doc for why a lock is cheap here). A nil Histogram is a
// no-op.
type Histogram struct {
	mu sync.Mutex
	h  *stats.Histogram
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n samples of value v at once: a simulator that keeps
// its own finer histogram publishes it bucket by bucket with one call
// per bucket.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.h.AddN(v, int64(n))
}

// data copies the histogram's shape and counts.
func (h *Histogram) data() HistogramData {
	h.mu.Lock()
	defer h.mu.Unlock()
	d := HistogramData{Counts: make([]uint64, h.h.Buckets())}
	d.Lo, d.Hi = h.h.Range()
	for i := range d.Counts {
		d.Counts[i] = uint64(h.h.Count(i))
	}
	return d
}

// Registry names and owns instruments. All methods are safe for
// concurrent use, and every method on a nil Registry returns a nil
// instrument, so disabled observability needs no branching at call
// sites.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	spanMu sync.Mutex
	ring   []SpanRecord // bounded span ring, oldest overwritten
	ringAt int
	totals map[string]*spanTotal
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		totals:   map[string]*spanTotal{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with
// n fixed-width buckets over [lo, hi); it panics on an invalid shape.
// Later calls with the same name return the existing histogram and
// ignore the shape arguments.
func (r *Registry) Histogram(name string, lo, hi float64, n int) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{h: stats.NewHistogram(lo, hi, n)}
		r.hists[name] = h
	}
	return h
}

// CounterValue reads the named counter (0 if absent or nil registry).
func (r *Registry) CounterValue(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name].Value()
}

// GaugeValue reads the named gauge (0 if absent or nil registry).
func (r *Registry) GaugeValue(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name].Value()
}
