package experiments

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"

	"rtdls/internal/driver"
	"rtdls/internal/stats"
)

// Options controls how a panel sweep is executed.
type Options struct {
	// Horizon is the arrival window per run in simulated time units. The
	// paper uses 1e7; the default here is 2e6, which preserves every
	// ordering and crossover at a fraction of the cost.
	Horizon float64
	// Runs is the number of paired-seed repetitions per (load, algorithm)
	// point. The paper uses 10.
	Runs int
	// BaseSeed offsets every derived seed, letting callers draw an entirely
	// fresh set of workloads.
	BaseSeed uint64
	// Workers bounds the number of concurrent simulations (default:
	// GOMAXPROCS).
	Workers int
}

// DefaultOptions returns reduced-cost defaults suitable for a laptop; pass
// {Horizon: 1e7, Runs: 10} for the paper's full scale.
func DefaultOptions() Options {
	return Options{Horizon: 2e6, Runs: 5, BaseSeed: 1, Workers: runtime.GOMAXPROCS(0)}
}

func (o Options) normalized() Options {
	if o.Horizon <= 0 {
		o.Horizon = 2e6
	}
	if o.Runs < 1 {
		o.Runs = 5
	}
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// SeedFor derives the deterministic workload seed for one (panel, load
// index, run) cell. All algorithms share the seed, so comparisons are
// paired: every algorithm sees the bit-identical task stream.
func SeedFor(base uint64, panelID string, loadIdx, run int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%d", base, panelID, loadIdx, run)
	s := h.Sum64()
	if s == 0 { // PCG accepts 0, but keep seeds trivially distinguishable
		s = 0x9e3779b97f4a7c15
	}
	return s
}

// Cell is one load point of a panel: per-algorithm reject-ratio summaries
// over the paired runs, plus mean auxiliary metrics.
type Cell struct {
	Load float64
	// RejectRatio[i] summarises algorithm Panel.Algs[i] across runs.
	RejectRatio []stats.Summary
	// Utilization[i] and MeanResponse[i] are run-averaged auxiliaries.
	Utilization  []float64
	MeanResponse []float64
}

// PanelResult is a fully executed panel.
type PanelResult struct {
	Panel Panel
	Opts  Options
	Cells []Cell
}

// Run executes every (load, algorithm, run) simulation of the panel on a
// bounded worker pool and aggregates the results.
func Run(p Panel, o Options) (*PanelResult, error) {
	o = o.normalized()
	if len(p.Algs) == 0 {
		return nil, fmt.Errorf("experiments: panel %s has no algorithms", p.ID)
	}
	if len(p.Loads) == 0 {
		return nil, fmt.Errorf("experiments: panel %s has no loads", p.ID)
	}

	type job struct{ li, ai, run int }
	type outcome struct {
		job
		res *driver.Result
		err error
	}
	jobs := make(chan job)
	outs := make(chan outcome)

	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				alg := p.Algs[j.ai]
				cfg := driver.Config{
					N: p.N, Cms: p.Cms, Cps: p.Cps,
					Policy:     alg.Policy,
					Algorithm:  alg.Algorithm,
					Rounds:     alg.Rounds,
					SystemLoad: p.Loads[j.li],
					AvgSigma:   p.AvgSigma,
					DCRatio:    p.DCRatio,
					Horizon:    o.Horizon,
					Seed:       SeedFor(o.BaseSeed, p.ID, j.li, j.run),
					CmsSpread:  p.CmsSpread,
					CpsSpread:  p.CpsSpread,
					// One deterministic cluster per panel: every load,
					// algorithm and run shares the same node cost table.
					HeteroSeed: SeedFor(o.BaseSeed, p.ID+"/hetero", 0, 0),
				}
				res, err := driver.Run(cfg)
				outs <- outcome{j, res, err}
			}
		}()
	}
	go func() {
		for li := range p.Loads {
			for ai := range p.Algs {
				for run := 0; run < o.Runs; run++ {
					jobs <- job{li, ai, run}
				}
			}
		}
		close(jobs)
		wg.Wait()
		close(outs)
	}()

	type acc struct {
		rr        stats.Online
		util, mrt stats.Online
	}
	accs := make([][]acc, len(p.Loads))
	for li := range accs {
		accs[li] = make([]acc, len(p.Algs))
	}
	var firstErr error
	for out := range outs {
		if out.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("experiments: panel %s load %v alg %s: %w",
					p.ID, p.Loads[out.li], p.Algs[out.ai].Name, out.err)
			}
			continue
		}
		a := &accs[out.li][out.ai]
		a.rr.Add(out.res.RejectRatio)
		a.util.Add(out.res.Utilization)
		a.mrt.Add(out.res.MeanResponse)
	}
	if firstErr != nil {
		return nil, firstErr
	}

	pr := &PanelResult{Panel: p, Opts: o, Cells: make([]Cell, len(p.Loads))}
	for li, load := range p.Loads {
		cell := Cell{
			Load:         load,
			RejectRatio:  make([]stats.Summary, len(p.Algs)),
			Utilization:  make([]float64, len(p.Algs)),
			MeanResponse: make([]float64, len(p.Algs)),
		}
		for ai := range p.Algs {
			a := &accs[li][ai]
			cell.RejectRatio[ai] = a.rr.Summary()
			cell.Utilization[ai] = a.util.Mean()
			cell.MeanResponse[ai] = a.mrt.Mean()
		}
		pr.Cells[li] = cell
	}
	return pr, nil
}

// RunAll executes the given panels sequentially (each panel parallelises
// internally), reporting progress through the optional callback.
func RunAll(panels []Panel, o Options, progress func(done, total int, p Panel)) ([]*PanelResult, error) {
	results := make([]*PanelResult, 0, len(panels))
	for i, p := range panels {
		pr, err := Run(p, o)
		if err != nil {
			return nil, err
		}
		results = append(results, pr)
		if progress != nil {
			progress(i+1, len(panels), p)
		}
	}
	return results, nil
}
