// Command bench is the repository's benchmark: seeded task streams from
// workload.Generator, driven closed-loop on a virtual clock the benchmark
// owns, through every rung of the ladder — service.Submit, pool.Submit,
// the HTTP handler, the loopback wire, rtdls.Simulate — measured from
// outside the code under test. See README.md in this directory.
//
//	go run ./bench                       # every workload, plain pass then traced pass
//	go run ./bench -workload deep-edf -trace 0 -seed 7 -seconds 10
//	go run ./bench -repeat 2             # run-to-run differences against the bounds
//
// After each (workload, pass) it prints the metrics by name with their
// units and then one JSON object {correct, attempted, failed, metrics}; it
// exits non-zero on any correctness failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	scale    float64
	trace    int // 0: plain pass, 1: traced pass, -1: both
	repeat   int
	out      string
}

// passResult is one workload measured in one pass.
type passResult struct {
	workload  string
	traced    bool
	metrics   map[string]float64
	attempted int
	failed    int
	cycles    int
	digest    uint64 // 0 when the pass has several submitters
	problems  []string
	regimes   []regime
	sample    []span
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all)")
	flag.Uint64Var(&o.seed, "seed", 1, "stream seed: the same seed gives the same task streams")
	flag.Float64Var(&o.seconds, "seconds", 10, "timed seconds per workload and pass")
	flag.Float64Var(&o.scale, "scale", 1, "multiplies every stream length (one common knob, never per workload)")
	flag.IntVar(&o.trace, "trace", -1, "0: plain pass only, 1: traced pass only (default: both)")
	flag.IntVar(&o.repeat, "repeat", 0, "run the plain pass n times and compare the runs against the bounds")
	flag.StringVar(&o.out, "out", "bench/out", "directory for trace.json")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || o.scale <= 0 || o.trace < -1 || o.trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, w io.Writer) error {
	selected := specs
	if o.workload != "" {
		sp, ok := specByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []spec{sp}
	}
	printStamp(w, o)
	if o.repeat > 0 {
		return repeatRuns(o, selected, w)
	}
	var tf traceFile
	failures := 0
	for _, sp := range selected {
		for _, traced := range []bool{false, true} {
			if o.trace >= 0 && traced != (o.trace == 1) {
				continue
			}
			pass := runPlain
			if traced {
				pass = runTraced
			}
			res, err := pass(sp, o)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			printPass(w, res)
			if len(res.problems) > 0 {
				failures++
			}
			if traced {
				tf.Workloads = append(tf.Workloads, traceFileWorkload{sp.name, sampleSpans(res.sample)})
			}
		}
	}
	if len(tf.Workloads) > 0 {
		if err := writeTrace(filepath.Join(o.out, "trace.json"), tf); err != nil {
			return err
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d pass(es) failed a correctness check", failures)
	}
	return nil
}

// wireConns is the plain pass's connection count on wire workloads.
func wireConns() int { return min(runtime.NumCPU(), 4) }

// minCycles is the fewest times each sub-stream is replayed.
const minCycles = 3

// runPlain measures the end-to-end metrics with tracing off. It replays the
// workload's sub-streams in cycles until o.seconds of timed work. Every
// replay of a sub-stream is the same work, so the best value a metric
// reaches over those replays is the one least disturbed by whatever else
// the box was doing (on a shared machine that noise only ever slows a
// replay down, for seconds at a time, and a median over a few cycles keeps
// most of it); the reported value is the mean of those bests over the
// sub-streams.
func runPlain(sp spec, o options) (passResult, error) {
	res := passResult{workload: sp.name, metrics: map[string]float64{}}
	conns := 1
	if sp.wire {
		conns = wireConns()
	}
	best := make([]map[string]float64, sp.streams)
	first := make([]uint64, sp.streams)
	var timed time.Duration
	for c := 0; c < minCycles || timed.Seconds() < o.seconds; c++ {
		for i := 0; i < sp.streams; i++ {
			var tot totals
			d, problems, err := replay(replayConfig{sp: sp, seed: streamSeed(o.seed, i), scale: o.scale, conns: conns}, &tot)
			if err != nil {
				return res, err
			}
			// One submitter decides in stream order, so every replay of a
			// sub-stream must produce the same decisions.
			if conns == 1 {
				if c == 0 {
					first[i] = d
				} else if d != first[i] && len(problems) == 0 {
					problems = append(problems, fmt.Sprintf("decision digest %016x differs from the first replay's %016x", d, first[i]))
					tot.failed = tot.attempted
				}
			}
			res.problems = append(res.problems, problems...)
			res.attempted += tot.attempted
			res.failed += tot.failed
			timed += tot.elapsed
			best[i] = keepBest(best[i], tot.endToEnd())
		}
		res.cycles++
	}
	for _, d := range endToEndMetrics {
		for _, b := range best {
			res.metrics[d.name] += b[d.name] / float64(len(best))
		}
	}
	if conns == 1 {
		res.digest = combine(first)
	}
	return res, nil
}

// keepBest folds one replay's end-to-end values into the best seen so far
// (nil before the first replay) and returns the result.
func keepBest(best, vs map[string]float64) map[string]float64 {
	if best == nil {
		return vs
	}
	for _, d := range endToEndMetrics {
		if v := vs[d.name]; (d.better == "higher") == (v > best[d.name]) {
			best[d.name] = v
		}
	}
	return best
}

// runTraced measures the per-layer metrics: each cycle replays every
// sub-stream once undecorated and once with every layer decorated, both
// with one submitter, so the pair gives the tracing overhead and a check
// that tracing changes no decision.
func runTraced(sp spec, o options) (passResult, error) {
	res := passResult{workload: sp.name, traced: true}
	var layers totals
	var buf []span
	// The overhead compares the best (least disturbed) elapsed time of each
	// sub-stream, traced against undecorated.
	refBest := make([]time.Duration, sp.streams)
	trBest := make([]time.Duration, sp.streams)
	first := make([]uint64, sp.streams)
	var timed time.Duration
	for c := 0; c < 2 || timed.Seconds() < o.seconds; c++ {
		for i := 0; i < sp.streams; i++ {
			rc := replayConfig{sp: sp, seed: streamSeed(o.seed, i), scale: o.scale, conns: 1}
			var ref totals
			d, problems, err := replay(rc, &ref)
			if err != nil {
				return res, err
			}
			if c == 0 {
				first[i] = d
			}
			res.problems = append(res.problems, problems...)

			rc.traced, rc.buf = true, &buf
			if c == 0 && i == 0 {
				rc.sample = &res.sample
			}
			before, elapsedBefore := layers.attempted, layers.elapsed
			dt, problems, err := replay(rc, &layers)
			if err != nil {
				return res, err
			}
			layers.latUS = layers.latUS[:0] // no per-layer metric reads latencies
			if (d != first[i] || dt != first[i]) && len(problems) == 0 {
				problems = append(problems, fmt.Sprintf("decision digests differ: first %016x, untraced %016x, traced %016x", first[i], d, dt))
				layers.failed += layers.attempted - before
			}
			res.problems = append(res.problems, problems...)
			res.attempted += ref.attempted
			res.failed += ref.failed
			tr := layers.elapsed - elapsedBefore
			timed += ref.elapsed + tr
			if c == 0 || ref.elapsed < refBest[i] {
				refBest[i] = ref.elapsed
			}
			if c == 0 || tr < trBest[i] {
				trBest[i] = tr
			}
		}
		res.cycles++
	}
	res.attempted += layers.attempted
	res.failed += layers.failed
	res.digest = combine(first)
	var refSum, trSum time.Duration
	for i := range refBest {
		refSum += refBest[i]
		trSum += trBest[i]
	}
	res.metrics = layers.perLayer(sp, float64(trSum)/float64(refSum)-1)
	res.regimes = layers.regimes(sp, res.metrics)

	// The trace must account for each request: Σ layer self time against
	// Σ root span time.
	var self int64
	for _, lt := range layers.by {
		self += lt.self
	}
	if layers.rootTotal > 0 {
		if gap := float64(self)/float64(layers.rootTotal) - 1; gap > 0.05 || gap < -0.05 {
			res.problems = append(res.problems, fmt.Sprintf("layer self times sum to %+.1f%% of the root spans", 100*gap))
		}
	}
	rungs, err := ladder(o.seed, o.scale)
	if err != nil {
		return res, err
	}
	for name, v := range rungs {
		res.metrics[name] = v
	}
	return res, nil
}

// combine folds the sub-streams' digests into the one printed.
func combine(ds []uint64) uint64 {
	h := uint64(fnvOffset)
	for _, d := range ds {
		h = fnv1a(h, d)
	}
	return h
}

func printStamp(w io.Writer, o options) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "# rtdls bench: nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d connections=%d scale=%g seconds=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, o.seed, wireConns(), o.scale, o.seconds)
}

// jsonMetric and jsonResult are the last line of a pass's output.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func printPass(w io.Writer, res passResult) {
	defs, pass := endToEndMetrics, "plain"
	if res.traced {
		defs, pass = perLayerMetrics, "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s pass): %d cycles, %d decisions attempted, %d failed, failed_share %g",
		res.workload, pass, res.cycles, res.attempted, res.failed, ratio(float64(res.failed), float64(res.attempted)))
	if res.digest != 0 {
		fmt.Fprintf(w, ", decision_digest %016x", res.digest)
	}
	fmt.Fprintln(w)
	jr := jsonResult{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v := res.metrics[d.name]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", d.name, v, d.unit)
		jr.Metrics[d.name] = jsonMetric{v, d.unit}
	}
	for _, r := range res.regimes {
		verdict := "ok"
		if !r.ok {
			verdict = "MISS (retune the stream in bench/workloads.go)"
		}
		fmt.Fprintf(w, "regime: %s: %s\n", r.claim, verdict)
	}
	sort.Strings(res.problems)
	for i, p := range res.problems {
		if i == 10 {
			fmt.Fprintf(w, "FAIL: ... and %d more\n", len(res.problems)-i)
			break
		}
		fmt.Fprintf(w, "FAIL: %s\n", p)
	}
	line, _ := json.Marshal(jr) // a map of floats and strings cannot fail to encode
	fmt.Fprintf(w, "%s\n", line)
}

// repeatRuns runs the plain pass o.repeat times on the same seed and
// prints, per workload and metric, how far the runs' values lie apart as a
// share of their median, against the metric's bound.
func repeatRuns(o options, selected []spec, w io.Writer) error {
	exceeded := 0
	fmt.Fprintf(w, "\n%-16s %-26s %12s %12s %8s %8s\n", "workload", "metric", "min", "max", "spread", "bound")
	for _, sp := range selected {
		values := map[string][]float64{}
		for r := 0; r < o.repeat; r++ {
			res, err := runPlain(sp, o)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			if len(res.problems) > 0 {
				return fmt.Errorf("%s: %s", sp.name, res.problems[0])
			}
			for name, v := range res.metrics {
				values[name] = append(values[name], v)
			}
		}
		for _, d := range endToEndMetrics {
			vs := append([]float64(nil), values[d.name]...)
			sort.Float64s(vs)
			spread := (vs[len(vs)-1] - vs[0]) / median(vs)
			mark := ""
			if spread > d.bound {
				mark = "  EXCEEDS"
				exceeded++
			}
			fmt.Fprintf(w, "%-16s %-26s %12.6g %12.6g %7.2f%% %7.2f%%%s\n",
				sp.name, d.name, vs[0], vs[len(vs)-1], 100*spread, 100*d.bound, mark)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d (workload, metric) pairs differ between runs by more than their bound", exceeded)
	}
	return nil
}
