package metrics

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return b.String()
}

func TestBucketEdges(t *testing.T) {
	// A value exactly on a bucket's upper bound must land in that bucket
	// (inclusive `le` semantics), and the next representable float above it
	// in the next one. Exercise every finite boundary — this is where the
	// float-log guard in BucketFor earns its keep.
	for i := 0; i < NumBuckets()-1; i++ {
		up := BucketUpper(i)
		if got := BucketFor(up); got != i {
			t.Fatalf("BucketFor(BucketUpper(%d)=%g) = %d, want %d", i, up, got, i)
		}
		next := math.Nextafter(up, math.Inf(1))
		want := i + 1
		if want > NumBuckets()-1 {
			want = NumBuckets() - 1
		}
		if got := BucketFor(next); got != want {
			t.Fatalf("BucketFor(just above bucket %d bound) = %d, want %d", i, got, want)
		}
	}
	if got := BucketFor(0); got != 0 {
		t.Fatalf("BucketFor(0) = %d, want 0", got)
	}
	if got := BucketFor(histMax * 10); got != NumBuckets()-1 {
		t.Fatalf("BucketFor(over max) = %d, want last bucket %d", got, NumBuckets()-1)
	}
	if !math.IsInf(BucketUpper(NumBuckets()-1), 1) {
		t.Fatalf("last bucket bound = %g, want +Inf", BucketUpper(NumBuckets()-1))
	}
}

func TestBucketBoundsMonotone(t *testing.T) {
	prev := 0.0
	for i := 0; i < NumBuckets()-1; i++ {
		up := BucketUpper(i)
		if up <= prev {
			t.Fatalf("bucket bounds not strictly increasing at %d: %g <= %g", i, up, prev)
		}
		prev = up
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(0.001) // 1 ms
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d, want 1000", h.Count())
	}
	if got := h.Sum(); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("Sum = %g, want 1.0", got)
	}
	// All mass in one bucket: every quantile reports that bucket's upper
	// bound, which must cover 1 ms within the 5% growth factor.
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 != p99 {
		t.Fatalf("single-bucket histogram: p50 %g != p99 %g", p50, p99)
	}
	if p50 < 0.001 || p50 > 0.001*histGrowth {
		t.Fatalf("p50 = %g, want within one growth factor above 1 ms", p50)
	}
	// Negative and NaN clamp to zero rather than corrupting a bucket index.
	h.Observe(-5)
	h.Observe(math.NaN())
	if h.Count() != 1002 {
		t.Fatalf("Count after clamped observes = %d, want 1002", h.Count())
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rtdls_test_seconds", "Test latency.", Labels{"stage": "plan"})
	h.Observe(0.001)
	h.Observe(0.001)
	h.Observe(1.0)
	out := render(t, r)

	for _, want := range []string{
		"# HELP rtdls_test_seconds Test latency.",
		"# TYPE rtdls_test_seconds histogram",
		`rtdls_test_seconds_bucket{stage="plan",le="+Inf"} 3`,
		`rtdls_test_seconds_count{stage="plan"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Sparse: two observed bands → two finite bucket lines plus +Inf.
	buckets := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "rtdls_test_seconds_bucket") {
			buckets++
		}
	}
	if buckets != 3 {
		t.Fatalf("rendered %d bucket lines, want 3 (two bands + Inf):\n%s", buckets, out)
	}
	// Cumulative counts must be monotone in rendered (le-sorted) order.
	if !strings.Contains(out, `,le="0.001`) {
		t.Fatalf("missing ~1ms bucket line:\n%s", out)
	}
}

func TestExpositionEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("rtdls_esc_total", `Help with \ backslash and`+"\nnewline.", Labels{
		"path": `a\b"c` + "\nd",
	}).Inc()
	out := render(t, r)
	if !strings.Contains(out, `# HELP rtdls_esc_total Help with \\ backslash and\nnewline.`) {
		t.Fatalf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `rtdls_esc_total{path="a\\b\"c\nd"} 1`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
}

func TestGaugeSetMaxAndAdd(t *testing.T) {
	var g Gauge
	g.Set(3)
	g.SetMax(2)
	if g.Value() != 3 {
		t.Fatalf("SetMax lowered the gauge: %g", g.Value())
	}
	g.SetMax(7)
	if g.Value() != 7 {
		t.Fatalf("SetMax(7) = %g", g.Value())
	}
	g.Add(-2.5)
	if g.Value() != 4.5 {
		t.Fatalf("Add(-2.5) = %g", g.Value())
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("rtdls_idem_total", "h", Labels{"shard": "0"})
	b := r.Counter("rtdls_idem_total", "h", Labels{"shard": "0"})
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	c := r.Counter("rtdls_idem_total", "h", Labels{"shard": "1"})
	if a == c {
		t.Fatal("distinct labels returned the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("rtdls_idem_total", "h", nil)
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1leading", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("metric name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "h", nil)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("invalid label name did not panic")
			}
		}()
		r.Counter("rtdls_ok_total", "h", Labels{"bad-label": "x"})
	}()
}

func TestFuncInstrumentsAndSortedRender(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("zz_last", "Rendered last.", nil, func() float64 { return 1.5 })
	r.CounterFunc("aa_first", "Rendered first.", nil, func() float64 { return 42 })
	out := render(t, r)
	first := strings.Index(out, "aa_first")
	last := strings.Index(out, "zz_last")
	if first < 0 || last < 0 || first > last {
		t.Fatalf("families not sorted by name:\n%s", out)
	}
	if !strings.Contains(out, "aa_first 42") || !strings.Contains(out, "zz_last 1.5") {
		t.Fatalf("func instruments not rendered:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		0.001:        "0.001",
		1:            "1",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Fatalf("formatFloat(%g) = %q, want %q", v, got, want)
		}
	}
	if got := formatFloat(math.NaN()); got != "NaN" {
		t.Fatalf("formatFloat(NaN) = %q", got)
	}
}

// TestConcurrentRegistryUnderRace hammers registration, updates, and
// scrapes from many goroutines; run with -race to verify the lock-free
// read path.
func TestConcurrentRegistryUnderRace(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			shard := Labels{"shard": string(rune('0' + g))}
			for i := 0; i < 2000; i++ {
				r.Counter("rtdls_conc_total", "h", shard).Inc()
				r.Gauge("rtdls_conc_depth", "h", shard).Set(float64(i))
				r.Gauge("rtdls_conc_depth_max", "h", shard).SetMax(float64(i))
				r.Histogram("rtdls_conc_seconds", "h", shard).Observe(float64(i) * 1e-6)
			}
		}(g)
	}
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var b strings.Builder
				if _, err := r.WriteTo(&b); err != nil {
					t.Errorf("WriteTo: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	scraper.Wait()

	total := 0.0
	for g := 0; g < 4; g++ {
		total += float64(r.Counter("rtdls_conc_total", "h", Labels{"shard": string(rune('0' + g))}).Value())
	}
	if total != 8000 {
		t.Fatalf("lost counter increments: %g, want 8000", total)
	}
}

// TestCounterFuncRendersPlainDigits: a function-backed counter renders a
// large count the way a Counter does, not in exponent form.
func TestCounterFuncRendersPlainDigits(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("big_total", "A large count.", nil, func() float64 { return 1234567 })
	r.Counter("same_total", "The same count.", nil).Add(1234567)
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"big_total 1234567\n", "same_total 1234567\n"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition lacks %q:\n%s", want, b.String())
		}
	}
}

// TestWriteToAllocs pins a scrape's allocation count over a registry of
// twenty families at its measured 125. Building the HELP escaper per family
// (a replacer with a table of about 6 KB) took it to 245.
func TestWriteToAllocs(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 20; i++ {
		name := "rtdls_alloc_" + string(rune('a'+i))
		help := `Family with a \ backslash and a "quote".`
		lab := Labels{"shard": string(rune('0' + i%4))}
		switch i % 3 {
		case 0:
			r.Counter(name+"_total", help, lab).Inc()
		case 1:
			r.Gauge(name, help, lab).Set(float64(i))
		default:
			r.Histogram(name+"_seconds", help, lab).Observe(1e-3)
		}
	}
	r.WriteTo(io.Discard) // settle the size hint
	got := testing.AllocsPerRun(50, func() {
		if _, err := r.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("WriteTo allocs/op = %.1f", got)
	if got > 130 {
		t.Fatalf("WriteTo allocs/op = %.1f, want ≤ 130", got)
	}
}
