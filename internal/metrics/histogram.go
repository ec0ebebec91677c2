package metrics

import (
	"math"
	"strconv"
	"strings"
	"sync/atomic"
)

// Histogram is a log-bucketed latency histogram in the HDR style:
// boundaries grow geometrically by 5% from 1 µs, so relative quantile
// error is bounded (~5%) across the full range up to 2 minutes. Values are
// seconds. It is the repo's one latency histogram: the server records
// /metrics latencies in it and the load harness (internal/load) records
// client latencies in it, so both sides of the wire share bucket edges.
//
// Every cell is an atomic: Observe may be called from any goroutine and a
// concurrent scrape reads a near-consistent snapshot without blocking
// writers. Observe is two atomic adds — the sample count lives in the
// bucket cells and the sum accumulates in fixed-point nanoseconds — so the
// admission hot path never spins on a CAS.
type Histogram struct {
	counts   []atomic.Uint64
	sumNanos atomic.Uint64 // nanoseconds; sub-ns residue of a sample is dropped
}

// Bucket scheme constants.
const (
	histMin    = 1e-6 // 1 µs
	histMax    = 120  // 2 min
	histGrowth = 1.05
)

var (
	histBuckets = int(math.Ceil(math.Log(histMax/histMin)/math.Log(histGrowth))) + 2

	// histBounds[i] is the inclusive upper bound of bucket i; the last
	// bucket is unbounded (+Inf) and has no entry here.
	histBounds = func() []float64 {
		b := make([]float64, histBuckets-1)
		for i := range b {
			b[i] = histMin * math.Pow(histGrowth, float64(i))
		}
		return b
	}()

	invLogGrowth = 1 / math.Log(histGrowth)
)

// NewHistogram returns an unregistered histogram; Registry.Histogram
// registers one under a name and labels.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, histBuckets)}
}

// BucketFor returns the bucket index for a sample of v seconds. Bucket
// upper bounds are inclusive, matching Prometheus `le` semantics: a value
// exactly on a boundary counts in that boundary's bucket.
func BucketFor(v float64) int {
	if v <= histMin {
		return 0
	}
	idx := int(math.Ceil(math.Log(v/histMin) * invLogGrowth))
	// Guard the boundary cases: floating-point log error can push a value
	// equal to histBounds[i] into bucket i+1 (pull it back), or leave a
	// value just above histBounds[i] in bucket i (push it forward).
	if idx > 0 && idx-1 < len(histBounds) && v <= histBounds[idx-1] {
		idx--
	} else if idx < len(histBounds) && v > histBounds[idx] {
		idx++
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// BucketUpper is the inclusive upper bound of bucket idx in seconds. The
// final bucket's bound renders as +Inf.
func BucketUpper(idx int) float64 {
	if idx >= len(histBounds) {
		return math.Inf(1)
	}
	return histBounds[idx]
}

// NumBuckets returns the bucket count of the scheme.
func NumBuckets() int { return histBuckets }

// Observe records one sample in seconds. Negative and NaN samples clamp to
// zero — they can only arise from clock skew.
func (h *Histogram) Observe(seconds float64) {
	if seconds < 0 || math.IsNaN(seconds) {
		seconds = 0
	}
	h.counts[BucketFor(seconds)].Add(1)
	h.sumNanos.Add(uint64(seconds * 1e9))
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of recorded samples in seconds.
func (h *Histogram) Sum() float64 {
	return float64(h.sumNanos.Load()) * 1e-9
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) in
// seconds: the upper edge of the bucket containing the q·Count-th sample.
func (h *Histogram) Quantile(q float64) float64 {
	cum := make([]float64, len(histBounds))
	var total float64
	for i := range h.counts {
		total += float64(h.counts[i].Load())
		if i < len(cum) {
			cum[i] = total
		}
	}
	return BucketQuantile(q, histBounds, cum, total)
}

// BucketQuantile returns an upper bound on the q-quantile (0 < q <= 1) of
// a bucketed distribution of total samples, given ascending bucket upper
// bounds les and the cumulative count at each: the first bound whose
// count reaches rank ⌈q·total⌉. A rank that lands in the +Inf bucket, or
// past the last bound, reports the largest finite bound; an empty
// distribution reports 0. Histogram.Quantile and the load harness's
// /metrics scrape both answer through this one walk.
func BucketQuantile(q float64, les, cum []float64, total float64) float64 {
	if total <= 0 {
		return 0
	}
	rank := math.Max(math.Ceil(q*total), 1)
	top := 0.0
	for i, le := range les {
		if math.IsInf(le, 1) {
			break
		}
		top = le
		if cum[i] >= rank {
			break
		}
	}
	return top
}

// write renders the histogram family member: sparse cumulative buckets,
// the +Inf bucket, _sum and _count.
func (h *Histogram) write(b *strings.Builder, name, labels string) {
	// Snapshot counts first so cumulative sums are monotone even while
	// writers race the scrape.
	snap := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		snap[i] = h.counts[i].Load()
		total += snap[i]
	}
	sum := h.Sum()

	var cum uint64
	for i, c := range snap {
		if c == 0 {
			continue
		}
		cum += c
		writeBucket(b, name, labels, formatFloat(BucketUpper(i)), cum)
	}
	writeBucket(b, name, labels, "+Inf", total)
	b.WriteString(name)
	b.WriteString("_sum")
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(formatFloat(sum))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(total, 10))
	b.WriteByte('\n')
}

// writeBucket renders one `name_bucket{...,le="x"} n` line, merging the le
// label into the series' constant label block.
func writeBucket(b *strings.Builder, name, labels, le string, n uint64) {
	b.WriteString(name)
	b.WriteString("_bucket")
	if labels == "" {
		b.WriteString(`{le="`)
	} else {
		b.WriteString(labels[:len(labels)-1])
		b.WriteString(`,le="`)
	}
	b.WriteString(le)
	b.WriteString(`"} `)
	b.WriteString(strconv.FormatUint(n, 10))
	b.WriteByte('\n')
}
