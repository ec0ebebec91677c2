// Package metrics is a zero-dependency instrumentation layer: atomic
// counters, float gauges and log-bucketed latency histograms behind a
// Registry that renders the Prometheus text exposition format (version
// 0.0.4). It exists so the admission engine can be observed — per-stage
// latency, queue depth, per-shard outcomes — without ever taking a
// shard's admission lock on the read path: every instrument update and
// every scrape read is a plain atomic operation.
//
// Instruments are identified by a metric family name plus an optional set
// of constant labels; registering the same (name, labels) pair twice
// returns the same instrument, so concurrent registration from several
// shards is safe and idempotent. Families render sorted by name and label
// signature, making scrapes byte-stable for a fixed set of values.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down, stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge (CAS loop; safe from any goroutine).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + d
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// SetMax raises the gauge to v if v exceeds the current value — a
// high-water mark (e.g. peak queue depth).
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// instrument is the render surface every concrete instrument implements.
type instrument interface {
	// write renders the instrument's sample lines for the series name
	// (already label-qualified for counters/gauges; histograms expand it).
	write(b *strings.Builder, name, labels string)
}

func (c *Counter) write(b *strings.Builder, name, labels string) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(c.Value(), 10))
	b.WriteByte('\n')
}

func (g *Gauge) write(b *strings.Builder, name, labels string) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(formatFloat(g.Value()))
	b.WriteByte('\n')
}

// funcInstrument evaluates a closure at render time — used for values
// maintained elsewhere on atomics (e.g. the event bus's drop counter).
type funcInstrument struct {
	fn      func() float64
	counter bool
}

func (f *funcInstrument) write(b *strings.Builder, name, labels string) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteByte(' ')
	// A count renders as a Counter does, in plain digits: the shortest
	// float form of 1234567 is 1.234567e+06.
	if v := f.fn(); f.counter && v >= 0 && v < 1<<63 && v == math.Trunc(v) {
		b.WriteString(strconv.FormatUint(uint64(v), 10))
	} else {
		b.WriteString(formatFloat(v))
	}
	b.WriteByte('\n')
}

// series is one labeled instrument within a family.
type series struct {
	labels string // rendered label block, e.g. `{shard="0"}` ("" when unlabeled)
	ins    instrument
}

// family is one metric name: a TYPE/HELP header plus its labeled series.
type family struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram"

	mu     sync.Mutex
	series map[string]*series // by label signature
	order  []string           // signatures in registration order; sorted at render
}

// Registry holds the instruments and renders them. The zero value is not
// usable; construct with NewRegistry. All methods are safe for concurrent
// use: registration takes a registry-level mutex, instrument updates are
// lock-free atomics, and rendering snapshots values without blocking
// writers.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	names    []string
	sizeHint atomic.Int64 // last rendered size, pre-sizes the next render
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Labels is an optional set of constant labels attached to one series.
type Labels map[string]string

// signature renders the sorted, escaped label block ("" when empty).
func (l Labels) signature() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		if !validName(k) {
			panic(fmt.Sprintf("metrics: invalid label name %q", k))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// validName reports whether s is a legal Prometheus metric or label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		letter := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !letter && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// The exposition-format escapers. A strings.Replacer is safe for
// concurrent use and builds its lookup table once, on first Replace.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string { return helpEscaper.Replace(v) }

// formatFloat renders a float sample value ("+Inf"/"-Inf"/"NaN" included).
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// lookup finds or creates the (family, series) slot, enforcing type
// consistency. build constructs the instrument on first registration.
func (r *Registry) lookup(name, help, typ string, labels Labels, build func() instrument) instrument {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	sig := labels.signature()

	r.mu.Lock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = fam
		r.names = append(r.names, name)
		sort.Strings(r.names)
	}
	r.mu.Unlock()

	if fam.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, fam.typ, typ))
	}

	fam.mu.Lock()
	defer fam.mu.Unlock()
	if s, ok := fam.series[sig]; ok {
		return s.ins
	}
	inst := build()
	fam.series[sig] = &series{labels: sig, ins: inst}
	fam.order = append(fam.order, sig)
	sort.Strings(fam.order)
	return inst
}

// Counter returns the counter registered under (name, labels), creating it
// on first use. Registering an existing name with a different instrument
// type panics — a programmer error, like a duplicate flag.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.lookup(name, help, "counter", labels, func() instrument { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge registered under (name, labels).
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.lookup(name, help, "gauge", labels, func() instrument { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram registered under (name, labels). Values
// are seconds; buckets follow the package's geometric scheme.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	return r.lookup(name, help, "histogram", labels, func() instrument { return newHistogram() }).(*Histogram)
}

// CounterFunc registers a counter whose value is read from fn at render
// time — for monotone counts maintained elsewhere on atomics.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.lookup(name, help, "counter", labels, func() instrument { return &funcInstrument{fn: fn, counter: true} })
}

// GaugeFunc registers a gauge whose value is read from fn at render time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.lookup(name, help, "gauge", labels, func() instrument { return &funcInstrument{fn: fn} })
}

// WriteTo renders every family in the Prometheus text exposition format,
// sorted by metric name and label signature.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.RLock()
	names := append([]string(nil), r.names...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.RUnlock()

	var b strings.Builder
	if hint := r.sizeHint.Load(); hint > 0 {
		b.Grow(int(hint) + int(hint)/8)
	}
	for _, fam := range fams {
		fam.mu.Lock()
		order := append([]string(nil), fam.order...)
		rows := make([]*series, len(order))
		for i, sig := range order {
			rows[i] = fam.series[sig]
		}
		fam.mu.Unlock()

		b.WriteString("# HELP ")
		b.WriteString(fam.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(fam.help))
		b.WriteByte('\n')
		b.WriteString("# TYPE ")
		b.WriteString(fam.name)
		b.WriteByte(' ')
		b.WriteString(fam.typ)
		b.WriteByte('\n')
		for _, s := range rows {
			s.ins.write(&b, fam.name, s.labels)
		}
	}
	r.sizeHint.Store(int64(b.Len()))
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// ServeHTTP serves the rendered exposition — mount as GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WriteTo(w) //nolint:errcheck // client disconnects are not actionable
}
