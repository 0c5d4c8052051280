package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// bootMedian boots the server setupRepeats times, each time running
// prepare (uploads and warm-up) after /healthz answers, and keeps the
// last server. setup_s is the median boot-to-prepared time in seconds.
func bootMedian(ctx context.Context, cfg config, timeout time.Duration, prepare func(*server) error) (*server, float64, error) {
	var times []float64
	var srv *server
	for i := 0; i < setupRepeats; i++ {
		srv.stop()
		logPath := filepath.Join(cfg.out, fmt.Sprintf("server-%s-seed%d-boot%d.log", cfg.workload, cfg.seed, i))
		start := time.Now()
		var err error
		srv, err = startServer(ctx, cfg.bin, timeout, logPath)
		if err != nil {
			return nil, 0, err
		}
		if prepare != nil {
			if err := prepare(srv); err != nil {
				srv.stop()
				return nil, 0, err
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	return srv, median(times), nil
}

// serverStats holds the /stats and /cache counters the metrics read.
type serverStats struct {
	SolverRuns      int64
	ProbesLaunched  int64
	ProbesCancelled int64
	Solver          struct {
		Candidates    int64
		MemoHits      int64
		TokensGrabbed int64
		MaxDepth      int64
	}
	Query struct {
		Answered        int64
		ExecIndexBuilds int64
		ExecIndexReuses int64
		ExecIndexProbes int64
	} `json:"query"`
	Store struct {
		Entries   int64 `json:"entries"`
		TreeHits  int64 `json:"tree_hits"`
		Evictions int64 `json:"evictions"`
	} `json:"-"`
}

func fetchStats(ctx context.Context, c *http.Client, base string) (serverStats, error) {
	var st serverStats
	status, body, err := do(ctx, c, base, request{Method: "GET", Path: "/stats"})
	if err == nil && status != 200 {
		err = fmt.Errorf("status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	if err != nil {
		return st, fmt.Errorf("GET /stats: %w", err)
	}
	var cache struct {
		Store json.RawMessage `json:"store"`
	}
	status, body, err = do(ctx, c, base, request{Method: "GET", Path: "/cache?max=0"})
	if err == nil && status != 200 {
		err = fmt.Errorf("status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(body, &cache)
	}
	if err == nil {
		err = json.Unmarshal(cache.Store, &st.Store)
	}
	if err != nil {
		return st, fmt.Errorf("GET /cache: %w", err)
	}
	return st, nil
}

// setSolverDeltas reports the solver, store and executor counters the
// server accumulated between before and after.
func setSolverDeltas(rep *report, before, after serverStats) {
	launched := after.ProbesLaunched - before.ProbesLaunched
	rep.set("service.solver_runs", float64(after.SolverRuns-before.SolverRuns))
	rep.set("race.probes_launched", float64(launched))
	if launched > 0 {
		rep.set("race.probe_waste_frac", float64(after.ProbesCancelled-before.ProbesCancelled)/float64(launched))
	}
	rep.set("logk.candidates", float64(after.Solver.Candidates-before.Solver.Candidates))
	rep.set("logk.memo_hits", float64(after.Solver.MemoHits-before.Solver.MemoHits))
	rep.set("logk.tokens_grabbed", float64(after.Solver.TokensGrabbed-before.Solver.TokensGrabbed))
	if after.SolverRuns > before.SolverRuns {
		// MaxDepth is a running maximum over the server's life.
		rep.set("logk.max_depth", float64(after.Solver.MaxDepth))
	}
	rep.set("store.tree_hits", float64(after.Store.TreeHits-before.Store.TreeHits))
	rep.set("store.evictions", float64(after.Store.Evictions-before.Store.Evictions))
	rep.set("store.entries", float64(after.Store.Entries))
	answered := after.Query.Answered - before.Query.Answered
	rep.set("join.index_builds", float64(after.Query.ExecIndexBuilds-before.Query.ExecIndexBuilds))
	rep.set("join.index_reuses", float64(after.Query.ExecIndexReuses-before.Query.ExecIndexReuses))
	if answered > 0 {
		rep.set("join.index_probes_per_query", float64(after.Query.ExecIndexProbes-before.Query.ExecIndexProbes)/float64(answered))
	}
}
