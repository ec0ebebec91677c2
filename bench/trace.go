package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rtdls/internal/pool"
	"rtdls/internal/rt"
	"rtdls/internal/server"
	"rtdls/internal/service"
)

// Span names, outermost first: wire.request ▸ server.handle ▸ engine.submit
// ▸ {pool.place, rt.fastreject, rt.plan}; driver.simulate is paper-sim's
// only span.
const (
	spanWire = iota
	spanHandle
	spanSubmit
	spanPlace
	spanFastReject
	spanPlan
	spanSimulate
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"wire.request", "server.handle", "engine.submit",
	"pool.place", "rt.fastreject", "rt.plan", "driver.simulate",
}

// span is one timed call into a layer. Times are nanoseconds since the
// tracer was created; parent is an index into the same slice, -1 for a
// root; trace is the task id of the request that caused the span.
type span struct {
	name       uint8
	parent     int32
	trace      int64
	start, end int64
}

// tracer records spans in memory from the decorators below. The traced
// pass has one submitter, so the innermost open span is the unambiguous
// parent of the next one; the mutex only orders the client and server
// goroutines of a wire request for the race detector.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	cur   int32
	trace int64

	// Counts taken at the same boundaries as the spans.
	planErrs, planNodes, fastHits atomic.Int64
	reqBytes, respBytes, http5xx  atomic.Int64
}

// newTracer returns an empty tracer that records into buf's storage, so
// successive replays reuse one buffer.
func newTracer(buf []span) *tracer {
	return &tracer{t0: time.Now(), spans: buf[:0], cur: -1}
}

// clear drops what the warm-up recorded, so the account covers the timed
// body only.
func (tr *tracer) clear() {
	tr.mu.Lock()
	tr.spans, tr.cur = tr.spans[:0], -1
	tr.mu.Unlock()
	for _, c := range []*atomic.Int64{&tr.planErrs, &tr.planNodes, &tr.fastHits, &tr.reqBytes, &tr.respBytes, &tr.http5xx} {
		c.Store(0)
	}
}

// startTrace marks the start of one request: the next span is a root.
func (tr *tracer) startTrace(id int64) {
	tr.mu.Lock()
	tr.cur, tr.trace = -1, id
	tr.mu.Unlock()
}

func (tr *tracer) begin(name uint8) int32 {
	tr.mu.Lock()
	id := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{name: name, parent: tr.cur, trace: tr.trace})
	tr.cur = id
	// Read the clock last so the bookkeeping above lands in the parent.
	tr.spans[id].start = int64(time.Since(tr.t0))
	tr.mu.Unlock()
	return id
}

func (tr *tracer) end(id int32) {
	end := int64(time.Since(tr.t0))
	tr.mu.Lock()
	tr.spans[id].end = end
	if tr.cur == id {
		tr.cur = tr.spans[id].parent
	}
	tr.mu.Unlock()
}

// layerTotals is the per-name account of a span set.
type layerTotals struct {
	count       int
	total, self int64 // ns
}

// accountSpans computes each name's call count, total and self time (span
// minus the part its children cover) and the summed root time, and checks
// the structure the account rests on: every span is closed, has a root,
// and lies inside its parent.
func accountSpans(spans []span) (by [numSpanNames]layerTotals, rootTotal int64, err error) {
	child := make([]int64, len(spans))
	for i, s := range spans {
		if s.end < s.start {
			return by, 0, fmt.Errorf("span %d (%s) never ended", i, spanNames[s.name])
		}
		d := s.end - s.start
		by[s.name].count++
		by[s.name].total += d
		if s.parent < 0 {
			rootTotal += d
			continue
		}
		if int(s.parent) >= i {
			return by, 0, fmt.Errorf("span %d (%s) has parent %d after it", i, spanNames[s.name], s.parent)
		}
		p := spans[s.parent]
		if s.start < p.start || s.end > p.end {
			return by, 0, fmt.Errorf("span %d (%s) [%d,%d] escapes its parent %s [%d,%d]",
				i, spanNames[s.name], s.start, s.end, spanNames[p.name], p.start, p.end)
		}
		child[s.parent] += d
	}
	for i, s := range spans {
		self := s.end - s.start - child[i]
		if self < 0 {
			return by, 0, fmt.Errorf("span %d (%s) has negative self time %d", i, spanNames[s.name], self)
		}
		by[s.name].self += self
	}
	return by, rootTotal, nil
}

// traceFile is the layout of trace.json: per traced workload, a sample of
// whole requests from its first traced replay.
type traceFile struct {
	Workloads []traceFileWorkload `json:"workloads"`
}

type traceFileWorkload struct {
	Workload string          `json:"workload"`
	Spans    []traceFileSpan `json:"spans"`
}

type traceFileSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	TraceID int64  `json:"trace_id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// traceSampleSpans caps the spans kept per workload for trace.json.
const traceSampleSpans = 20000

// sampleSpans converts the leading whole requests of spans, at most
// traceSampleSpans spans, to the file form.
func sampleSpans(spans []span) []traceFileSpan {
	n := min(len(spans), traceSampleSpans)
	for n < len(spans) && n > 0 && spans[n].parent >= 0 {
		n-- // cut at a root so no request is split
	}
	out := make([]traceFileSpan, n)
	for i, s := range spans[:n] {
		out[i] = traceFileSpan{ID: i, Parent: int(s.parent), TraceID: s.trace,
			Name: spanNames[s.name], StartNS: s.start, EndNS: s.end}
	}
	return out
}

// writeTrace writes the sampled spans to path, after the run has ended.
func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedPartitioner records an rt.plan span around every Plan call.
type tracedPartitioner struct {
	rt.Partitioner
	tr *tracer
}

func (p tracedPartitioner) Plan(ctx *rt.PlanContext, t *rt.Task) (*rt.Plan, error) {
	id := p.tr.begin(spanPlan)
	pl, err := p.Partitioner.Plan(ctx, t)
	p.tr.end(id)
	if err != nil {
		p.tr.planErrs.Add(1)
	} else {
		p.tr.planNodes.Add(int64(len(pl.Nodes)))
	}
	return pl, err
}

// tracedFastRejecter additionally forwards the optional rt.FastRejecter
// interface, under an rt.fastreject span.
type tracedFastRejecter struct {
	tracedPartitioner
	fr rt.FastRejecter
}

func (p tracedFastRejecter) FastReject(ctx *rt.PlanContext, t *rt.Task) bool {
	id := p.tr.begin(spanFastReject)
	hit := p.fr.FastReject(ctx, t)
	p.tr.end(id)
	if hit {
		p.tr.fastHits.Add(1)
	}
	return hit
}

// tracePartitioner wraps part, keeping rt.FastRejecter when part has it.
func tracePartitioner(part rt.Partitioner, tr *tracer) rt.Partitioner {
	tp := tracedPartitioner{part, tr}
	if fr, ok := part.(rt.FastRejecter); ok {
		return tracedFastRejecter{tp, fr}
	}
	return tp
}

// tracedPlacement records a pool.place span around every Order call and
// forwards pool.LoadAware (a placement without it is taken to need loads,
// which is what the pool assumes too).
type tracedPlacement struct {
	pool.Placement
	tr *tracer
}

func (p tracedPlacement) Order(dst []int, seq uint64, loads []pool.ShardLoad, t *rt.Task) []int {
	id := p.tr.begin(spanPlace)
	dst = p.Placement.Order(dst, seq, loads, t)
	p.tr.end(id)
	return dst
}

func (p tracedPlacement) NeedsLoads() bool {
	if la, ok := p.Placement.(pool.LoadAware); ok {
		return la.NeedsLoads()
	}
	return true
}

// tracedEngine records an engine.submit span around every Submit.
type tracedEngine struct {
	server.Engine
	tr *tracer
}

func (e tracedEngine) Submit(ctx context.Context, t rt.Task) (service.Decision, error) {
	id := e.tr.begin(spanSubmit)
	d, err := e.Engine.Submit(ctx, t)
	e.tr.end(id)
	return d, err
}

// tracedHandler records a server.handle span around every request and
// counts request bytes, response bytes and 5xx statuses.
type tracedHandler struct {
	http.Handler
	tr *tracer
}

type countingWriter struct {
	http.ResponseWriter
	bytes  int64
	status int
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &countingWriter{ResponseWriter: w}
	id := h.tr.begin(spanHandle)
	h.Handler.ServeHTTP(cw, r)
	h.tr.end(id)
	h.tr.reqBytes.Add(r.ContentLength)
	h.tr.respBytes.Add(cw.bytes)
	if cw.status >= 500 {
		h.tr.http5xx.Add(1)
	}
}
