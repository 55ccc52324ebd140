package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"

	"rdlroute/internal/obs"
)

// Record is one timestamped trace record. Every record is parented to the
// benchmark operation (Op) that caused it: an "op" record is that
// operation's own span, and the flow's spans never nest inside each
// other, so an operation's self time is its span minus its records' spans.
type Record struct {
	Kind  string         `json:"t"` // "op", "span", "event", "count" or "observe"
	Name  string         `json:"name"`
	Op    int            `json:"op"`               // id of the operation span; 0 outside operations
	Ms    float64        `json:"ms"`               // start (spans) or emission time, ms since the tracer started
	DurMs float64        `json:"dur_ms,omitempty"` // spans only
	V     float64        `json:"v,omitempty"`      // count delta or observed value
	Attrs map[string]any `json:"attrs,omitempty"`
}

// num returns the named numeric attribute (0 when absent or not numeric).
func (r Record) num(key string) float64 {
	switch v := r.Attrs[key].(type) {
	case int64:
		return float64(v)
	case float64:
		return v
	default:
		return 0
	}
}

// str returns the named string attribute ("" when absent).
func (r Record) str(key string) string {
	s, _ := r.Attrs[key].(string)
	return s
}

// Tracer is the benchmark's own obs.Tracer. It timestamps every span,
// event, counter update and observation, parents each to the benchmark
// operation open when it arrived, and keeps everything in memory until
// the run writes it out. Safe for concurrent use; flow records reaching
// it through the obs.Tracer methods are parented to the most recently
// opened operation, which is exact when one operation runs at a time
// (the in-process workloads). Concurrent operations attach their flow
// records explicitly with Ingest.
type Tracer struct {
	mu     sync.Mutex
	t0     time.Time
	recs   []Record
	nextOp int
	cur    int // operation receiving flow records; 0 outside operations
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

func (t *Tracer) since(at time.Time) float64 {
	return float64(at.Sub(t.t0).Nanoseconds()) / 1e6
}

// add appends r, parented to op, or to the current operation when op is 0.
func (t *Tracer) add(op int, r Record) {
	t.mu.Lock()
	r.Op = op
	if op == 0 {
		r.Op = t.cur
	}
	t.recs = append(t.recs, r)
	t.mu.Unlock()
}

// withAttrs adds attrs to m, allocating m when needed.
func withAttrs(m map[string]any, attrs []obs.Attr) map[string]any {
	for _, a := range attrs {
		if m == nil {
			m = make(map[string]any, len(attrs))
		}
		m[a.Key] = a.Value()
	}
	return m
}

// Enabled implements obs.Tracer.
func (t *Tracer) Enabled() bool { return true }

type span struct {
	t     *Tracer
	op    int // owning operation; 0 takes the current one when the span ends
	name  string
	attrs map[string]any
	t0    time.Time
}

func (s *span) End(attrs ...obs.Attr) {
	end := time.Now()
	s.t.add(s.op, Record{Kind: "span", Name: s.name, Ms: s.t.since(s.t0),
		DurMs: float64(end.Sub(s.t0).Nanoseconds()) / 1e6, Attrs: withAttrs(s.attrs, attrs)})
}

// Span implements obs.Tracer.
func (t *Tracer) Span(name string, attrs ...obs.Attr) obs.Span {
	return t.SpanUnder(0, name, attrs...)
}

// SpanUnder opens a span parented to operation op, or to the current
// operation when op is 0.
func (t *Tracer) SpanUnder(op int, name string, attrs ...obs.Attr) obs.Span {
	return &span{t: t, op: op, name: name, attrs: withAttrs(nil, attrs), t0: time.Now()}
}

// Event implements obs.Tracer.
func (t *Tracer) Event(name string, attrs ...obs.Attr) {
	t.add(0, Record{Kind: "event", Name: name, Ms: t.since(time.Now()), Attrs: withAttrs(nil, attrs)})
}

// Count implements obs.Tracer.
func (t *Tracer) Count(name string, delta int64) {
	t.add(0, Record{Kind: "count", Name: name, Ms: t.since(time.Now()), V: float64(delta)})
}

// Observe implements obs.Tracer.
func (t *Tracer) Observe(name string, v float64) {
	t.add(0, Record{Kind: "observe", Name: name, Ms: t.since(time.Now()), V: v})
}

// OpSpan is the benchmark's span around one operation.
type OpSpan struct {
	t     *Tracer
	id    int
	name  string
	attrs map[string]any
	t0    time.Time
}

// Op opens the span of one benchmark operation and makes it the parent
// of flow records arriving until it ends.
func (t *Tracer) Op(name string, attrs ...obs.Attr) *OpSpan {
	t.mu.Lock()
	t.nextOp++
	o := &OpSpan{t: t, id: t.nextOp, name: name, attrs: withAttrs(nil, attrs), t0: time.Now()}
	t.cur = o.id
	t.mu.Unlock()
	return o
}

// End closes the operation span, attaching attrs.
func (o *OpSpan) End(attrs ...obs.Attr) {
	end := time.Now()
	m := withAttrs(o.attrs, attrs)
	t := o.t
	t.mu.Lock()
	if t.cur == o.id {
		t.cur = 0
	}
	t.recs = append(t.recs, Record{Kind: "op", Name: o.name, Op: o.id,
		Ms: t.since(o.t0), DurMs: float64(end.Sub(o.t0).Nanoseconds()) / 1e6, Attrs: m})
	t.mu.Unlock()
}

// AddOp records an operation that ran elsewhere — a server job timed by
// its client — and returns its span id for Ingest.
func (t *Tracer) AddOp(name string, start time.Time, dur time.Duration, attrs ...obs.Attr) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	id := t.nextOp
	t.recs = append(t.recs, Record{Kind: "op", Name: name, Op: id, Ms: t.since(start),
		DurMs: float64(dur.Nanoseconds()) / 1e6, Attrs: withAttrs(nil, attrs)})
	return id
}

// Ingest attaches records of a trace stream produced elsewhere — the
// JSONL trace a server job streams — to operation op. The stream's clock
// started at start; its records are shifted onto the tracer's clock.
func (t *Tracer) Ingest(op int, start time.Time, recs []obs.Record) {
	off := t.since(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range recs {
		t.recs = append(t.recs, Record{Kind: r.T, Name: r.Name, Op: op, Ms: r.Ms + off,
			DurMs: r.DurMs, V: r.V, Attrs: r.Attrs})
	}
}

// Records returns a copy of everything recorded so far, in arrival order.
func (t *Tracer) Records() []Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Record(nil), t.recs...)
}

// WriteJSONL writes every record, one JSON object a line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range t.Records() {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}
