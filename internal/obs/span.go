package obs

import "time"

// spanRingCap bounds the in-memory span ring: once full, the oldest
// records are overwritten. Per-name aggregates keep counting, so
// nothing is lost from the totals — only individual old records.
const spanRingCap = 512

// Span measures the wall time of one simulation phase. A nil Span
// (from a nil Registry) is a no-op.
type Span struct {
	reg   *Registry
	name  string
	start time.Time
}

// SpanRecord is one completed span as it appears in snapshots.
type SpanRecord struct {
	Name    string `json:"name"`
	StartMs int64  `json:"start_ms"`
	DurUs   int64  `json:"dur_us"`
}

// SpanTotal aggregates every completed span of one name, including
// those already evicted from the ring.
type SpanTotal struct {
	Count   uint64 `json:"count"`
	TotalUs int64  `json:"total_us"`
}

type spanTotal struct {
	count   uint64
	totalUs int64
}

// StartSpan begins a span. End must be called to record it.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{reg: r, name: name, start: time.Now()}
}

// End records the span into the registry's ring and aggregates.
func (s *Span) End() {
	if s == nil {
		return
	}
	rec := SpanRecord{
		Name:    s.name,
		StartMs: s.start.UnixMilli(),
		DurUs:   time.Since(s.start).Microseconds(),
	}
	r := s.reg
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	if len(r.ring) < spanRingCap {
		r.ring = append(r.ring, rec)
	} else {
		r.ring[r.ringAt] = rec
		r.ringAt = (r.ringAt + 1) % spanRingCap
	}
	t := r.totals[s.name]
	if t == nil {
		t = &spanTotal{}
		r.totals[s.name] = t
	}
	t.count++
	t.totalUs += rec.DurUs
}

// drainSpans returns and clears the buffered span records, oldest
// first, and returns the all-time per-name totals.
func (r *Registry) drainSpans() ([]SpanRecord, map[string]SpanTotal) {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	totals := make(map[string]SpanTotal, len(r.totals))
	for name, t := range r.totals {
		totals[name] = SpanTotal{Count: t.count, TotalUs: t.totalUs}
	}
	if len(r.ring) == 0 {
		return nil, totals
	}
	out := make([]SpanRecord, 0, len(r.ring))
	out = append(out, r.ring[r.ringAt:]...)
	out = append(out, r.ring[:r.ringAt]...)
	r.ring = r.ring[:0]
	r.ringAt = 0
	return out, totals
}

// Snapshot is one exported metrics frame. Counters/gauges/histograms
// are cumulative; Spans holds the records completed since the previous
// snapshot (bounded by the ring), and SpanTotals the all-time per-name
// aggregates.
type Snapshot struct {
	TimeMs     int64                    `json:"ts_ms"`
	Final      bool                     `json:"final,omitempty"`
	Counters   map[string]uint64        `json:"counters,omitempty"`
	Gauges     map[string]float64       `json:"gauges,omitempty"`
	Histograms map[string]HistogramData `json:"histograms,omitempty"`
	Spans      []SpanRecord             `json:"spans,omitempty"`
	SpanTotals map[string]SpanTotal     `json:"span_totals,omitempty"`
}

// HistogramData is a histogram's exported shape: n counts over
// fixed-width buckets spanning [Lo, Hi).
type HistogramData struct {
	Lo     float64  `json:"lo"`
	Hi     float64  `json:"hi"`
	Counts []uint64 `json:"counts"`
}

// Snapshot captures every instrument's current value and drains the
// span ring. Safe to call while instruments are being updated.
func (r *Registry) Snapshot(final bool) Snapshot {
	snap := Snapshot{TimeMs: time.Now().UnixMilli(), Final: final}
	if r == nil {
		return snap
	}
	r.instruments(&snap)
	snap.Spans, snap.SpanTotals = r.drainSpans()
	return snap
}

// instruments copies every counter, gauge and histogram into snap.
func (r *Registry) instruments(snap *Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap.Counters = make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	snap.Gauges = make(map[string]float64, len(r.gauges))
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	snap.Histograms = make(map[string]HistogramData, len(r.hists))
	for name, h := range r.hists {
		snap.Histograms[name] = h.data()
	}
}
