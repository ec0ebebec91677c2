package load

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Scrape is one parsed Prometheus text exposition: a flat list of samples,
// each a metric name plus its label set and value. The parser accepts
// exactly what the server's zero-dependency registry renders (format
// 0.0.4) — HELP/TYPE comments are skipped, label values may contain the
// escaped forms \\, \" and \n.
type Scrape struct {
	samples []Sample
}

// Sample is one exposition line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ScrapeMetrics fetches and parses base+"/metrics". A server without a
// metrics registry answers 404; that is returned as an error the caller
// can treat as "no server-side metrics".
func ScrapeMetrics(ctx context.Context, client *http.Client, base string) (*Scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("load: metrics returned %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return ParseMetrics(string(raw)), nil
}

// ParseMetrics parses an exposition body. Unparseable lines are skipped —
// the harness degrades to fewer server-side numbers instead of failing a
// load run over a scrape artifact.
func ParseMetrics(text string) *Scrape {
	sc := &Scrape{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if s, ok := parseSample(line); ok {
			sc.samples = append(sc.samples, s)
		}
	}
	return sc
}

// parseSample parses one `name{k="v",...} value` line.
func parseSample(line string) (Sample, bool) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		body := rest[i+1:]
		end := -1
		// Scan for the closing brace outside quotes.
		inQuote, escaped := false, false
		for j := 0; j < len(body); j++ {
			c := body[j]
			switch {
			case escaped:
				escaped = false
			case c == '\\' && inQuote:
				escaped = true
			case c == '"':
				inQuote = !inQuote
			case c == '}' && !inQuote:
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, false
		}
		if !parseLabels(body[:end], s.Labels) {
			return s, false
		}
		rest = strings.TrimSpace(body[end+1:])
	} else {
		i := strings.IndexByte(rest, ' ')
		if i < 0 {
			return s, false
		}
		s.Name = rest[:i]
		rest = strings.TrimSpace(rest[i+1:])
	}
	// Drop an optional trailing timestamp.
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, false
	}
	s.Value = v
	return s, s.Name != ""
}

// parseLabels parses `k="v",k2="v2"` into the map, unescaping values.
func parseLabels(body string, into map[string]string) bool {
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
			return false
		}
		key := strings.TrimSpace(body[:eq])
		rest := body[eq+2:]
		var val strings.Builder
		j, closed := 0, false
		for ; j < len(rest); j++ {
			c := rest[j]
			if c == '\\' && j+1 < len(rest) {
				j++
				switch rest[j] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[j])
				}
				continue
			}
			if c == '"' {
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return false
		}
		into[key] = val.String()
		body = strings.TrimPrefix(strings.TrimSpace(rest[j+1:]), ",")
	}
	return true
}

// matches reports whether the sample carries every key=value of want
// (extra labels on the sample are fine).
func (s Sample) matches(name string, want map[string]string) bool {
	if s.Name != name {
		return false
	}
	for k, v := range want {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

// Value returns the value of the first sample matching name and the label
// subset, or ok=false.
func (sc *Scrape) Value(name string, want map[string]string) (float64, bool) {
	for _, s := range sc.samples {
		if s.matches(name, want) {
			return s.Value, true
		}
	}
	return 0, false
}

// Sum adds every sample matching name and the label subset.
func (sc *Scrape) Sum(name string, want map[string]string) float64 {
	total := 0.0
	for _, s := range sc.samples {
		if s.matches(name, want) {
			total += s.Value
		}
	}
	return total
}

// LabelValues returns the sorted distinct values label takes across the
// samples of one metric family.
func (sc *Scrape) LabelValues(name, label string) []string {
	seen := map[string]bool{}
	for _, s := range sc.samples {
		if s.Name == name {
			if v, ok := s.Labels[label]; ok && !seen[v] {
				seen[v] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// histDelta is the difference of one labeled histogram between two
// scrapes: delta cumulative counts over the union of rendered bucket
// bounds. The server renders buckets sparsely, so the union (with each
// scrape read as a step function) is what makes before/after comparable.
type histDelta struct {
	les   []float64 // sorted upper bounds, +Inf last when present
	cum   []float64 // delta cumulative count at each bound
	count float64   // delta _count
	sum   float64   // delta _sum (seconds)
}

// cumAt evaluates a scrape's cumulative bucket count at bound le: the
// rendered cumulative of the largest bound <= le (0 below the first).
func cumAt(pairs [][2]float64, le float64) float64 {
	c := 0.0
	for _, p := range pairs {
		if p[0] <= le {
			c = p[1]
		}
	}
	return c
}

// bucketPairs extracts the sorted (le, cumulative) pairs of one labeled
// histogram from a scrape.
func bucketPairs(sc *Scrape, name string, want map[string]string) [][2]float64 {
	var pairs [][2]float64
	for _, s := range sc.samples {
		if !s.matches(name+"_bucket", want) {
			continue
		}
		raw, ok := s.Labels["le"]
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			if raw == "+Inf" {
				le = math.Inf(1)
			} else {
				continue
			}
		}
		pairs = append(pairs, [2]float64{le, s.Value})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	return pairs
}

// histogramDelta computes the before→after delta of one labeled histogram.
func histogramDelta(before, after *Scrape, name string, want map[string]string) histDelta {
	bp := bucketPairs(before, name, want)
	ap := bucketPairs(after, name, want)
	seen := map[float64]bool{}
	var les []float64
	for _, p := range append(append([][2]float64{}, bp...), ap...) {
		if !seen[p[0]] {
			seen[p[0]] = true
			les = append(les, p[0])
		}
	}
	sort.Float64s(les)
	d := histDelta{les: les, cum: make([]float64, len(les))}
	for i, le := range les {
		if c := cumAt(ap, le) - cumAt(bp, le); c > 0 {
			d.cum[i] = c
		}
	}
	bc, _ := before.Value(name+"_count", want)
	ac, _ := after.Value(name+"_count", want)
	d.count = ac - bc
	bs, _ := before.Value(name+"_sum", want)
	as, _ := after.Value(name+"_sum", want)
	d.sum = as - bs
	return d
}

// quantile returns an upper bound on the q-quantile in seconds of the
// delta distribution; the +Inf bucket reports the largest finite bound.
func (d histDelta) quantile(q float64) float64 {
	if d.count <= 0 || len(d.les) == 0 {
		return 0
	}
	rank := math.Ceil(q * d.count)
	if rank < 1 {
		rank = 1
	}
	for i, c := range d.cum {
		if c >= rank {
			le := d.les[i]
			if math.IsInf(le, 1) {
				break
			}
			return le
		}
	}
	// Landed in +Inf (or rounding starved the finite buckets): report the
	// largest finite bound seen.
	for i := len(d.les) - 1; i >= 0; i-- {
		if !math.IsInf(d.les[i], 1) {
			return d.les[i]
		}
	}
	return 0
}

// StageLatency is the server-side latency of one admission pipeline stage
// over the load run, from the /metrics before/after delta.
type StageLatency struct {
	Stage  string  `json:"stage"`
	Count  int64   `json:"count"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	MeanUs float64 `json:"mean_us"`
}

// ShardCounters is one shard's admission outcomes over the load run.
// Displacements counts tasks unseated by node churn on this shard;
// FleetNodes is the shard's node count by lifecycle state at the end of
// the run (a point-in-time gauge, not a delta).
type ShardCounters struct {
	Shard         string           `json:"shard"`
	Submits       int64            `json:"submits"`
	Accepts       int64            `json:"accepts"`
	Rejects       int64            `json:"rejects"`
	Commits       int64            `json:"commits"`
	Displacements int64            `json:"displacements,omitempty"`
	Speculative   int64            `json:"speculative,omitempty"`
	Conflicts     int64            `json:"conflicts,omitempty"`
	PlansComputed int64            `json:"plans_computed,omitempty"`
	PlansReused   int64            `json:"plans_reused,omitempty"`
	DemandRejects int64            `json:"demand_rejects,omitempty"`
	QueueDepthMax float64          `json:"queue_depth_max"`
	FleetNodes    map[string]int64 `json:"fleet_nodes,omitempty"`
}

// ReadmissionLatency summarises the server's re-admission latency
// histogram (rtdls_readmission_seconds) over the run: how long displaced
// tasks spent between losing their seat and passing the schedulability
// test again.
type ReadmissionLatency struct {
	Count  int64   `json:"count"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	MeanUs float64 `json:"mean_us"`
}

// ServerMetrics is the server-side view of one load run, computed as the
// delta of two /metrics scrapes (before and after). It closes the loop
// between client-observed latency and what the admission pipeline itself
// measured.
type ServerMetrics struct {
	Stages        []StageLatency  `json:"stages,omitempty"`
	Shards        []ShardCounters `json:"shards,omitempty"`
	QueueDepthMax float64         `json:"queue_depth_max"`
	EventsDropped float64         `json:"events_dropped"`
	Displacements int64           `json:"displacements,omitempty"`

	// Speculative and Conflicts total the optimistic-admission outcome
	// counters across shards over the run; ConflictRate is the fraction of
	// off-lock planned admissions that lost the install race and replayed
	// serialized — the wire-level health signal for the two-phase admission
	// path under this workload's concurrency.
	Speculative  int64               `json:"speculative"`
	Conflicts    int64               `json:"conflicts"`
	ConflictRate float64             `json:"conflict_rate"`
	Readmission  *ReadmissionLatency `json:"readmission,omitempty"`

	// PlansComputed and PlansReused total, across shards, the plans the
	// admission tests computed by running the partitioner and the plans
	// they carried over from the previous schedule; their sum over Submits
	// is the mean number of waiting tasks an arrival's test walked.
	// DemandRejects totals the rejects the demand bound decided with no
	// plan at all.
	PlansComputed int64 `json:"plans_computed"`
	PlansReused   int64 `json:"plans_reused"`
	DemandRejects int64 `json:"demand_rejects"`
}

// MetricsDelta summarises the before→after difference of two scrapes.
func MetricsDelta(before, after *Scrape) *ServerMetrics {
	sm := &ServerMetrics{}
	const stageName = "rtdls_admission_stage_seconds"
	for _, stage := range after.LabelValues(stageName+"_bucket", "stage") {
		d := histogramDelta(before, after, stageName, map[string]string{"stage": stage})
		if d.count <= 0 {
			continue
		}
		sl := StageLatency{
			Stage:  stage,
			Count:  int64(d.count),
			P50Us:  d.quantile(0.50) * 1e6,
			P99Us:  d.quantile(0.99) * 1e6,
			MeanUs: d.sum / d.count * 1e6,
		}
		sm.Stages = append(sm.Stages, sl)
	}
	counterDelta := func(name string, want map[string]string) int64 {
		return int64(after.Sum(name, want) - before.Sum(name, want))
	}
	for _, shard := range after.LabelValues("rtdls_submits_total", "shard") {
		want := map[string]string{"shard": shard}
		scs := ShardCounters{
			Shard:         shard,
			Submits:       counterDelta("rtdls_submits_total", want),
			Accepts:       counterDelta("rtdls_accepts_total", want),
			Rejects:       counterDelta("rtdls_rejects_total", want),
			Commits:       counterDelta("rtdls_commits_total", want),
			Displacements: counterDelta("rtdls_displacements_total", want),
			Speculative:   counterDelta("rtdls_admission_speculative_total", want),
			Conflicts:     counterDelta("rtdls_admission_conflicts_total", want),
			PlansComputed: counterDelta("rtdls_admission_plans_computed_total", want),
			PlansReused:   counterDelta("rtdls_admission_plans_reused_total", want),
			DemandRejects: counterDelta("rtdls_admission_demand_rejects_total", want),
		}
		scs.QueueDepthMax, _ = after.Value("rtdls_queue_depth_max", want)
		if scs.QueueDepthMax > sm.QueueDepthMax {
			sm.QueueDepthMax = scs.QueueDepthMax
		}
		// Fleet-node gauges are a point-in-time snapshot, not a delta: the
		// after scrape answers "what state is the fleet in now".
		for _, st := range after.LabelValues("rtdls_fleet_nodes", "state") {
			v, ok := after.Value("rtdls_fleet_nodes", map[string]string{"shard": shard, "state": st})
			if !ok {
				continue
			}
			if scs.FleetNodes == nil {
				scs.FleetNodes = map[string]int64{}
			}
			scs.FleetNodes[st] = int64(v)
		}
		sm.Displacements += scs.Displacements
		sm.Speculative += scs.Speculative
		sm.Conflicts += scs.Conflicts
		sm.PlansComputed += scs.PlansComputed
		sm.PlansReused += scs.PlansReused
		sm.DemandRejects += scs.DemandRejects
		sm.Shards = append(sm.Shards, scs)
	}
	if attempts := sm.Speculative + sm.Conflicts; attempts > 0 {
		sm.ConflictRate = float64(sm.Conflicts) / float64(attempts)
	}
	sm.EventsDropped = after.Sum("rtdls_events_dropped_total", nil) - before.Sum("rtdls_events_dropped_total", nil)
	if d := histogramDelta(before, after, "rtdls_readmission_seconds", nil); d.count > 0 {
		sm.Readmission = &ReadmissionLatency{
			Count:  int64(d.count),
			P50Us:  d.quantile(0.50) * 1e6,
			P99Us:  d.quantile(0.99) * 1e6,
			MeanUs: d.sum / d.count * 1e6,
		}
	}
	return sm
}
