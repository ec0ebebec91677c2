// Command dlserve puts the admission-control engine on the wire: an
// HTTP/JSON server fronting a single cluster or a sharded pool, with the
// schedulability test of Lin et al. behind POST /v1/submit.
//
// A 16-node cluster at 100k simulation units per wall second:
//
//	dlserve -addr :8080 -n 16 -scale 100000
//
// A sharded fleet of four 8-node clusters with spillover placement and a
// bounded queue (full queue → 429 + Retry-After):
//
//	dlserve -addr :8080 -n 8 -shards 4 -placement spillover -max-queue 64
//
// Fleet operations: POST /v1/nodes/{id}/{drain|fail|restore} changes one
// node's lifecycle state at runtime (displaced tasks are re-admitted
// through the normal schedulability test), and -churn scripts the same
// operations at wall-clock offsets from startup:
//
//	dlserve -addr :8080 -n 16 -churn "t=5s fail n3; t=12s restore n3"
//
// Observability: GET /metrics serves the Prometheus text exposition
// (per-stage admission latency, per-shard outcomes, HTTP metrics);
// -pprof-addr serves net/http/pprof on a separate listener; -log-level
// and -log-format select structured (slog) request logging.
// -mutex-profile-fraction and -block-profile-rate switch on the runtime's
// lock-contention and blocking profiles, served as /debug/pprof/mutex and
// /debug/pprof/block on the -pprof-addr listener — the direct way to see
// how much of the admission path still waits on the shard lock now that
// planning runs speculatively outside it.
//
// SIGTERM or SIGINT triggers a graceful drain: new submissions are
// refused with 503 + Retry-After, every committed plan is flushed, event
// streams receive a final "end" event, and the final stats snapshot is
// printed (and, with -final-stats / -final-metrics, written out) before
// exit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers the pprof handlers on DefaultServeMux
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rtdls"
	"rtdls/internal/fleet"
	"rtdls/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		n         = flag.Int("n", 16, "processing nodes per cluster")
		cms       = flag.Float64("cms", 1, "unit data transmission cost Cms")
		cps       = flag.Float64("cps", 100, "unit data processing cost Cps")
		policy    = flag.String("policy", "edf", "scheduling policy: edf or fifo")
		alg       = flag.String("alg", rtdls.AlgDLTIIT, fmt.Sprintf("algorithm: one of %v", rtdls.Algorithms()))
		rounds    = flag.Int("rounds", 2, "installments per node for -alg dlt-mr")
		maxQueue  = flag.Int("max-queue", 0, "waiting-queue bound per shard; 0 = unbounded (full queue rejects 429)")
		shards    = flag.Int("shards", 0, "split the fleet into K clusters of -n nodes (0 = single cluster)")
		placement = flag.String("placement", "round-robin", fmt.Sprintf("shard routing policy: one of %v", rtdls.Placements()))
		seed      = flag.Uint64("seed", 1, "seed for seeded placements")
		scale     = flag.Float64("scale", 1000, "simulation time units per wall second")
		maxRetry  = flag.Float64("max-retry-after", 60, "cap on the advertised Retry-After (seconds)")
		drainWait = flag.Duration("drain-timeout", 30*time.Second, "bound on the shutdown drain")
		stats     = flag.String("final-stats", "", "write the final /v1/stats snapshot to this file on shutdown")
		metricsF  = flag.String("final-metrics", "", "write the final /metrics exposition to this file on shutdown")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = off)")
		mutexFrac = flag.Int("mutex-profile-fraction", 0, "runtime mutex profile sampling: 1 in N contended lock events (0 = off); served at /debug/pprof/mutex on -pprof-addr")
		blockRate = flag.Int("block-profile-rate", 0, "runtime block profile sampling: one event per N ns blocked (0 = off); served at /debug/pprof/block on -pprof-addr")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logFormat = flag.String("log-format", "text", "log format: text or json")
		quiet     = flag.Bool("quiet", false, "suppress per-request logging")
		churn     = flag.String("churn", "", "node churn schedule applied in-process at wall offsets from startup, e.g. \"t=5s fail n3; t=12s restore n3\"")
	)
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlserve:", err)
		os.Exit(1)
	}

	if err := run(*addr, *n, *cms, *cps, *policy, *alg, *rounds, *maxQueue,
		*shards, *placement, *seed, *scale, *maxRetry, *drainWait,
		*stats, *metricsF, *pprofAddr, *mutexFrac, *blockRate,
		logger, *quiet, *churn); err != nil {
		fmt.Fprintln(os.Stderr, "dlserve:", err)
		os.Exit(1)
	}
}

// buildLogger assembles the slog logger the -log-level/-log-format flags
// describe.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

func run(addr string, n int, cms, cps float64, policyName, alg string, rounds, maxQueue,
	shards int, placementName string, seed uint64, scale, maxRetry float64,
	drainWait time.Duration, statsPath, metricsPath, pprofAddr string,
	mutexFrac, blockRate int, logger *slog.Logger, quiet bool, churnSpec string) error {

	pol, err := rtdls.ParsePolicy(policyName)
	if err != nil {
		return err
	}
	churnSched, err := fleet.ParseSchedule(churnSpec)
	if err != nil {
		return err
	}
	reg := rtdls.NewMetricsRegistry()
	opts := []rtdls.Option{
		rtdls.WithNodes(n),
		rtdls.WithParams(rtdls.Params{Cms: cms, Cps: cps}),
		rtdls.WithPolicy(pol),
		rtdls.WithAlgorithm(alg),
		rtdls.WithRounds(rounds),
		rtdls.WithMaxQueue(maxQueue),
		rtdls.WithClock(rtdls.NewWallClock(scale)),
		rtdls.WithMetrics(reg),
	}
	if shards > 0 {
		pl, err := rtdls.ParsePlacement(placementName, seed)
		if err != nil {
			return err
		}
		opts = append(opts, rtdls.WithShards(shards), rtdls.WithPlacement(pl))
	}
	eng, err := rtdls.New(opts...)
	if err != nil {
		return err
	}

	reqLogger := logger
	if quiet {
		reqLogger = nil
	}
	srv, err := server.New(server.Config{
		Engine:        eng,
		Scale:         scale,
		MaxRetryAfter: maxRetry,
		Version:       rtdls.Version,
		Logger:        reqLogger,
		Metrics:       reg,
	})
	if err != nil {
		return err
	}

	if mutexFrac > 0 {
		runtime.SetMutexProfileFraction(mutexFrac)
		logger.Info("mutex profiling on", slog.Int("fraction", mutexFrac))
	}
	if blockRate > 0 {
		runtime.SetBlockProfileRate(blockRate)
		logger.Info("block profiling on", slog.Int("rate_ns", blockRate))
	}
	if (mutexFrac > 0 || blockRate > 0) && pprofAddr == "" {
		logger.Warn("contention profiling enabled but -pprof-addr is empty; profiles are being collected with nowhere to serve them")
	}
	if pprofAddr != "" {
		pln, err := net.Listen("tcp", pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		go func() {
			// The pprof import registered its handlers on DefaultServeMux;
			// serving it on a separate listener keeps profiling off the
			// public port.
			if err := http.Serve(pln, nil); err != nil {
				logger.Warn("pprof server stopped", slog.Any("err", err))
			}
		}()
		logger.Info("pprof listening", slog.String("addr", pln.Addr().String()))
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// A client that dribbles its request line or parks idle keep-alive
	// connections holds a goroutine and a descriptor each: bound both, and
	// the header block with them. No WriteTimeout — /v1/events is a
	// long-lived SSE stream — and no ReadTimeout: bodies are small and
	// bounded by the handlers.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    64 << 10,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logger.Info("listening", slog.String("addr", ln.Addr().String()),
		slog.Int("nodes", n), slog.Int("shards", shards), slog.Float64("scale", scale))

	// The churn schedule runs in-process against the engine at wall-clock
	// offsets from startup; it stops when the server begins draining.
	churnDone := make(chan struct{})
	defer close(churnDone)
	if len(churnSched) > 0 {
		go func() {
			err := fleet.Run(churnDone, churnSched, func(op fleet.Op) error {
				res, err := eng.SetNodeState(op.Node, op.State)
				if err != nil {
					return err
				}
				logger.Info("churn", slog.String("op", op.String()),
					slog.Int("displaced", res.Displaced), slog.Int("readmitted", res.Readmitted))
				return nil
			})
			if err != nil {
				logger.Error("churn schedule aborted", slog.Any("err", err))
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		logger.Info("draining", slog.String("signal", s.String()))
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		logger.Error("drain", slog.Any("err", err))
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Error("shutdown", slog.Any("err", err))
	}

	final := eng.Stats()
	total, fivexx := srv.Requests()
	logger.Info("final stats",
		slog.Int("arrivals", final.Arrivals), slog.Int("accepts", final.Accepts),
		slog.Int("rejects", final.Rejects), slog.Int("commits", final.Commits),
		slog.Int("displaced", final.Displaced), slog.Int("readmitted", final.Readmitted),
		slog.Int("queue", final.QueueLen), slog.Int64("http", total), slog.Int64("http_5xx", fivexx))
	if statsPath != "" {
		snapshot := struct {
			rtdls.ServiceStats
			HTTPRequests int64 `json:"http_requests"`
			HTTP5xx      int64 `json:"http_5xx"`
		}{final, total, fivexx}
		data, err := json.MarshalIndent(snapshot, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(statsPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if _, err := reg.WriteTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
