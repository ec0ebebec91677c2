// Package load is the wire-level load harness behind cmd/dlload: it
// drives a dlserve endpoint with closed-loop (fixed concurrency) or
// open-loop (scheduled arrival) traffic, classifies every response by the
// stable wire code, verifies that busy rejections carry usable Retry-After
// hints, and summarises latency with the server's own histogram
// (internal/metrics), so client and server quantiles share bucket edges.
//
// Open-loop latency is measured from each request's *intended* arrival
// instant, not from when a worker got around to sending it, so a stalled
// server inflates the tail instead of silently slowing the generator
// (the coordinated-omission trap).
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rtdls/internal/errs"
	"rtdls/internal/fleet"
	"rtdls/internal/metrics"
	"rtdls/internal/server"
)

// Options configures one load run.
type Options struct {
	// URL is the dlserve base URL, e.g. "http://127.0.0.1:8080".
	URL string

	// Mode is "closed" (Workers goroutines, each submitting back to back)
	// or "open" (N arrivals on a generated schedule).
	Mode string

	// Workers is the closed-loop concurrency; in open mode it caps the
	// requests in flight (defaults: 16 closed, 1024 open).
	Workers int

	// N is the total number of submissions.
	N int

	// Rate is the open-loop mean arrival rate in requests per second.
	Rate float64

	// Burst groups open-loop arrivals: tasks arrive in bursts of this
	// size with exponential gaps between bursts, keeping the mean rate at
	// Rate. 1 (or 0) means plain Poisson arrivals.
	Burst int

	// Replay, when non-empty, is an explicit open-loop arrival schedule:
	// offsets in seconds from the start of the run. Overrides Rate/Burst
	// and N.
	Replay []float64

	// Sigma and Deadline shape the submitted tasks (simulation units).
	// SigmaSpread draws each task's sigma uniformly from
	// [Sigma/SigmaSpread, Sigma*SigmaSpread]; <= 1 means constant.
	Sigma       float64
	Deadline    float64
	SigmaSpread float64

	// Seed feeds the arrival-schedule and sigma RNG.
	Seed int64

	// Timeout bounds one HTTP request (default 10 s).
	Timeout time.Duration

	// Churn, when non-empty, drives the server's fleet admin API during
	// the run: each op is POSTed to /v1/nodes/{id}/{action} at its
	// wall-second offset from the start. The traffic side keeps running
	// regardless of individual op failures; the run waits for the schedule
	// to finish (so a trailing restore always lands) before the post-run
	// stats and metrics scrapes.
	Churn fleet.Schedule

	// Client overrides the HTTP client (tests).
	Client *http.Client
}

// ChurnReport summarises the churn schedule the harness drove over the
// fleet admin API — part of BENCH_wire.json for chaos runs.
type ChurnReport struct {
	Schedule   string `json:"schedule"`
	Applied    int64  `json:"applied"`
	Failed     int64  `json:"failed"`
	Displaced  int64  `json:"displaced"`
	Readmitted int64  `json:"readmitted"`
}

// RetryAfterReport summarises the Retry-After hints observed on busy
// rejections (429) and drain refusals (503). Compliant means every such
// response carried a parseable hint of at least one second.
type RetryAfterReport struct {
	Observed   int64   `json:"observed"`
	Missing    int64   `json:"missing"`
	MinSeconds float64 `json:"min_seconds,omitempty"`
	MaxSeconds float64 `json:"max_seconds,omitempty"`
	Compliant  bool    `json:"compliant"`
}

// LatencyReport summarises the run's latency histogram in milliseconds.
// Each quantile is capped at the exact maximum.
type LatencyReport struct {
	Samples uint64  `json:"samples"`
	P50Ms   float64 `json:"p50_ms"`
	P90Ms   float64 `json:"p90_ms"`
	P99Ms   float64 `json:"p99_ms"`
	P999Ms  float64 `json:"p999_ms"`
	MeanMs  float64 `json:"mean_ms"`
	MaxMs   float64 `json:"max_ms"`
}

// Report is the result of one load run — the content of BENCH_wire.json.
//
// HTTP5xx counts hard server errors (status >= 500 except 503); 503 is the
// server's deliberate drain backpressure and is tallied as Unavailable.
type Report struct {
	Mode       string  `json:"mode"`
	Workers    int     `json:"workers"`
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      int     `json:"burst,omitempty"`
	Seed       int64   `json:"seed"`

	Requests         int64   `json:"requests"`
	DurationSeconds  float64 `json:"duration_seconds"`
	ThroughputPerSec float64 `json:"throughput_per_sec"`

	Accepted           int64 `json:"accepted"`
	RejectedInfeasible int64 `json:"rejected_infeasible"`
	RejectedDeadline   int64 `json:"rejected_deadline"`
	RejectedBusy       int64 `json:"rejected_busy"`
	BadRequest         int64 `json:"bad_request"`
	Unavailable        int64 `json:"unavailable"`
	HTTP5xx            int64 `json:"http_5xx"`
	TransportErrors    int64 `json:"transport_errors"`
	OtherStatus        int64 `json:"other_status"`

	RetryAfter RetryAfterReport `json:"retry_after"`
	Latency    LatencyReport    `json:"latency"`

	// ServerStats is the server's /v1/stats snapshot taken after the run.
	ServerStats json.RawMessage `json:"server_stats,omitempty"`

	// ServerMetrics is the before→after delta of the server's /metrics
	// exposition over the run: per-stage admission latency quantiles,
	// per-shard outcome counters, the queue-depth high-water mark and the
	// event-drop count. Omitted when the server has no /metrics endpoint.
	ServerMetrics *ServerMetrics `json:"server_metrics,omitempty"`

	// Churn summarises the fleet churn schedule the run drove, when one
	// was configured.
	Churn *ChurnReport `json:"churn,omitempty"`
}

// AcceptRatio returns accepted / requests (0 with no requests).
func (r *Report) AcceptRatio() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Accepted) / float64(r.Requests)
}

// WriteJSON writes the report, indented, to path.
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// counters is the shared outcome tally, updated lock-free by workers.
type counters struct {
	accepted, infeasible, deadline, busy int64
	badReq, unavailable, fivexx          int64
	transport, other                     int64

	raObserved, raMissing int64
	raMin, raMax          atomicFloat
}

// atomicFloat is a CAS min/max accumulator for the Retry-After bounds and
// the latency maximum.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) update(v float64, better func(candidate, current float64) bool) {
	for {
		cur := a.bits.Load()
		if cur != 0 && !better(v, math.Float64frombits(cur)) {
			return
		}
		if a.bits.CompareAndSwap(cur, math.Float64bits(v)) {
			return
		}
	}
}
func (a *atomicFloat) value() float64 { return math.Float64frombits(a.bits.Load()) }

// Run executes one load run and returns its report. The context cancels
// the run early; requests already in flight still complete.
func Run(ctx context.Context, opts Options) (*Report, error) {
	if opts.URL == "" {
		return nil, fmt.Errorf("load: empty URL")
	}
	if opts.Mode == "" {
		opts.Mode = "closed"
	}
	if opts.Mode != "closed" && opts.Mode != "open" {
		return nil, fmt.Errorf("load: unknown mode %q (want closed or open)", opts.Mode)
	}
	if opts.N <= 0 && len(opts.Replay) == 0 {
		return nil, fmt.Errorf("load: N must be positive")
	}
	if opts.Workers <= 0 {
		if opts.Mode == "closed" {
			opts.Workers = 16
		} else {
			opts.Workers = 1024
		}
	}
	if opts.Mode == "open" && opts.Rate <= 0 && len(opts.Replay) == 0 {
		return nil, fmt.Errorf("load: open mode needs a positive rate")
	}
	if opts.Sigma <= 0 {
		opts.Sigma = 200
	}
	if opts.Deadline <= 0 {
		opts.Deadline = 20000
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 10 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{
			Timeout: opts.Timeout,
			Transport: &http.Transport{
				MaxIdleConns:        opts.Workers * 2,
				MaxIdleConnsPerHost: opts.Workers * 2,
			},
		}
	}

	var (
		cnt    counters
		seq    atomic.Int64
		hist   = metrics.NewHistogram()
		maxLat atomicFloat
	)
	record := func(since time.Time) {
		s := time.Since(since).Seconds()
		hist.Observe(s)
		maxLat.update(s, func(new, cur float64) bool { return new > cur })
	}

	submitURL := opts.URL + "/v1/submit"
	body := func(rng *rand.Rand) server.TaskRequest {
		sigma := opts.Sigma
		if opts.SigmaSpread > 1 {
			lo, hi := opts.Sigma/opts.SigmaSpread, opts.Sigma*opts.SigmaSpread
			sigma = lo + rng.Float64()*(hi-lo)
		}
		return server.TaskRequest{ID: seq.Add(1), Sigma: sigma, Deadline: opts.Deadline}
	}

	// Scrape /metrics before the run so the report can carry server-side
	// deltas; a server without the endpoint just skips this section.
	preScrape, preErr := ScrapeMetrics(ctx, client, opts.URL)

	// The churn schedule runs concurrently with the traffic, POSTing each
	// op to the fleet admin API at its wall offset. Individual op failures
	// are tallied, not fatal — the traffic is the experiment.
	var churnRep *ChurnReport
	churnDone := make(chan struct{})
	if len(opts.Churn) > 0 {
		churnRep = &ChurnReport{Schedule: opts.Churn.String()}
		go func() {
			defer close(churnDone)
			fleet.Run(ctx.Done(), opts.Churn, func(op fleet.Op) error {
				if err := applyChurnOp(ctx, client, opts.URL, op, churnRep); err != nil {
					churnRep.Failed++
				} else {
					churnRep.Applied++
				}
				return nil // keep driving the rest of the schedule
			})
		}()
	} else {
		close(churnDone)
	}

	start := time.Now()
	switch opts.Mode {
	case "closed":
		var wg sync.WaitGroup
		var issued atomic.Int64
		for w := 0; w < opts.Workers; w++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				for {
					if issued.Add(1) > int64(opts.N) || ctx.Err() != nil {
						return
					}
					t0 := time.Now()
					doSubmit(ctx, client, submitURL, body(rng), &cnt)
					record(t0)
				}
			}(rand.New(rand.NewSource(opts.Seed + int64(w))))
		}
		wg.Wait()
	case "open":
		offsets := opts.Replay
		if len(offsets) == 0 {
			offsets = arrivalSchedule(opts.N, opts.Rate, opts.Burst, opts.Seed)
		}
		rng := rand.New(rand.NewSource(opts.Seed ^ 0x9e3779b9))
		bodies := make([]server.TaskRequest, len(offsets))
		for i := range bodies {
			bodies[i] = body(rng)
		}
		inFlight := make(chan struct{}, opts.Workers)
		var wg sync.WaitGroup
		for i, off := range offsets {
			intended := start.Add(time.Duration(off * float64(time.Second)))
			if d := time.Until(intended); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
				}
			}
			if ctx.Err() != nil {
				break
			}
			inFlight <- struct{}{} // blocks when Workers requests are in flight
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-inFlight }()
				doSubmit(ctx, client, submitURL, bodies[i], &cnt)
				// Latency from the intended arrival instant: queueing
				// behind a saturated in-flight cap counts against the
				// server, not the generator.
				record(intended)
			}(i)
		}
		wg.Wait()
	}
	elapsed := time.Since(start).Seconds()

	samples, maxSec := hist.Count(), maxLat.value()
	quantileMs := func(q float64) float64 { return min(hist.Quantile(q), maxSec) * 1e3 }
	meanMs := hist.Sum() / max(float64(samples), 1) * 1e3

	rep := &Report{
		Mode:       opts.Mode,
		Workers:    opts.Workers,
		RatePerSec: opts.Rate,
		Burst:      opts.Burst,
		Seed:       opts.Seed,

		Requests: cnt.accepted + cnt.infeasible + cnt.deadline + cnt.busy +
			cnt.badReq + cnt.unavailable + cnt.fivexx + cnt.transport + cnt.other,
		DurationSeconds: elapsed,

		Accepted:           cnt.accepted,
		RejectedInfeasible: cnt.infeasible,
		RejectedDeadline:   cnt.deadline,
		RejectedBusy:       cnt.busy,
		BadRequest:         cnt.badReq,
		Unavailable:        cnt.unavailable,
		HTTP5xx:            cnt.fivexx,
		TransportErrors:    cnt.transport,
		OtherStatus:        cnt.other,

		RetryAfter: RetryAfterReport{
			Observed:   cnt.raObserved,
			Missing:    cnt.raMissing,
			MinSeconds: cnt.raMin.value(),
			MaxSeconds: cnt.raMax.value(),
			Compliant:  cnt.raMissing == 0,
		},
		Latency: LatencyReport{
			Samples: samples,
			P50Ms:   quantileMs(0.50),
			P90Ms:   quantileMs(0.90),
			P99Ms:   quantileMs(0.99),
			P999Ms:  quantileMs(0.999),
			MeanMs:  meanMs,
			MaxMs:   maxSec * 1e3,
		},
	}
	if elapsed > 0 {
		rep.ThroughputPerSec = float64(rep.Requests) / elapsed
	}
	// Let a trailing restore land before the post-run scrapes, so the
	// final stats and fleet gauges describe the recovered fleet.
	<-churnDone
	rep.Churn = churnRep
	if stats, err := fetchStats(ctx, client, opts.URL); err == nil {
		rep.ServerStats = stats
	}
	if preErr == nil {
		if postScrape, err := ScrapeMetrics(ctx, client, opts.URL); err == nil {
			rep.ServerMetrics = MetricsDelta(preScrape, postScrape)
		}
	}
	return rep, nil
}

// arrivalSchedule draws N offsets (seconds): bursts of size burst with
// exponential gaps between bursts, preserving a mean rate of rate req/s.
// burst <= 1 is plain Poisson.
func arrivalSchedule(n int, rate float64, burst int, seed int64) []float64 {
	if burst < 1 {
		burst = 1
	}
	rng := rand.New(rand.NewSource(seed))
	gapRate := rate / float64(burst)
	offsets := make([]float64, 0, n)
	t := 0.0
	for len(offsets) < n {
		t += rng.ExpFloat64() / gapRate
		for b := 0; b < burst && len(offsets) < n; b++ {
			offsets = append(offsets, t)
		}
	}
	return offsets
}

// doSubmit sends one submission and classifies the outcome.
func doSubmit(ctx context.Context, client *http.Client, url string, tb server.TaskRequest, cnt *counters) {
	raw, _ := json.Marshal(tb)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		atomic.AddInt64(&cnt.transport, 1)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		atomic.AddInt64(&cnt.transport, 1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusOK:
		atomic.AddInt64(&cnt.accepted, 1)
	case errs.CodeInfeasible:
		atomic.AddInt64(&cnt.infeasible, 1)
	case errs.CodeDeadlinePast:
		atomic.AddInt64(&cnt.deadline, 1)
	case errs.CodeBusy:
		atomic.AddInt64(&cnt.busy, 1)
		observeRetryAfter(resp, cnt)
	case http.StatusBadRequest:
		atomic.AddInt64(&cnt.badReq, 1)
	case http.StatusServiceUnavailable:
		atomic.AddInt64(&cnt.unavailable, 1)
		observeRetryAfter(resp, cnt)
	default:
		if resp.StatusCode >= 500 {
			atomic.AddInt64(&cnt.fivexx, 1)
		} else {
			atomic.AddInt64(&cnt.other, 1)
		}
	}
}

// observeRetryAfter records whether a backpressure response carried a
// usable Retry-After hint (an integer of at least one second).
func observeRetryAfter(resp *http.Response, cnt *counters) {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		atomic.AddInt64(&cnt.raMissing, 1)
		return
	}
	atomic.AddInt64(&cnt.raObserved, 1)
	v := float64(secs)
	cnt.raMin.update(v, func(new, cur float64) bool { return new < cur })
	cnt.raMax.update(v, func(new, cur float64) bool { return new > cur })
}

// applyChurnOp POSTs one churn op to the fleet admin API and folds the
// reported displacement counts into the churn report.
func applyChurnOp(ctx context.Context, client *http.Client, base string, op fleet.Op, rep *ChurnReport) error {
	url := fmt.Sprintf("%s/v1/nodes/%d/%s", base, op.Node, fleet.Verb(op.State))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("load: churn %q: status %d", op.String(), resp.StatusCode)
	}
	var res struct {
		Displaced  int64 `json:"displaced"`
		Readmitted int64 `json:"readmitted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return err
	}
	rep.Displaced += res.Displaced
	rep.Readmitted += res.Readmitted
	return nil
}

// fetchStats grabs the server's /v1/stats snapshot verbatim.
func fetchStats(ctx context.Context, client *http.Client, base string) (json.RawMessage, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("load: stats returned %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
