// Command perfbench is the end-to-end benchmark of htdserve. It boots
// a built htdserve binary on a free local port, drives it from this one
// process over at most two connections, checks every answer against an
// independent reference, and prints one JSON result line:
//
//	perfbench -workload decompose-cold|query-warm|query-mixed-rw \
//	          -seed N -seconds S -trace 0|1 [-server path] [-out dir]
//
// With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 it carries the per-layer metrics, from the same HTTP run plus
// an untraced and a traced in-process replay of the same inputs.
// BENCHMARK.json at the repository root lists every workload and
// metric; run.sh builds both binaries and runs this command.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"
)

// runDeadline bounds one whole run, setup and checks included, so the
// benchmark exits (and stops its server) well inside three minutes.
const runDeadline = 170 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // htdserve binary
	out      string // directory for server logs and span dumps
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names one metric and its unit; endToEnd and perLayer are
// the exact sets BENCHMARK.json declares (TestBenchmarkJSONMatches).
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"server_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"htdserve.edge_ms", "ms"},
	{"gen.lag_ms.p99", "ms"},
	{"error_frac", "ratio"},
	{"http.mutate_ms.p50", "ms"},
	{"http.mutate_ms.p95", "ms"},
	{"tenant.admit_us.p50", "us"},
	{"tenant.admit_us.p99", "us"},
	{"dataset.resolve_us.p50", "us"},
	{"dataset.mutate_ms.p50", "ms"},
	{"dataset.mutate_ms.p95", "ms"},
	{"dataset.compaction_frac", "ratio"},
	{"service.plan_ms.p50", "ms"},
	{"service.plan_hit_frac", "ratio"},
	{"service.solve_ms.p50", "ms"},
	{"service.solve_ms.p90", "ms"},
	{"service.solver_runs", "count"},
	{"decomp.checkhd_us.p50", "us"},
	{"race.probes_launched", "count"},
	{"race.probe_waste_frac", "ratio"},
	{"logk.candidates", "count"},
	{"logk.memo_hits", "count"},
	{"logk.tokens_grabbed", "count"},
	{"logk.max_depth", "count"},
	{"logk.depth_excess", "count"},
	{"hypergraph.parse_ms.p50", "ms"},
	{"join.eval_ms.p50", "ms"},
	{"join.eval_ms.p99", "ms"},
	{"join.aggregate_ms.p50", "ms"},
	{"join.aggregate_ms.p99", "ms"},
	{"join.index_probes_per_query", "count"},
	{"join.index_builds", "count"},
	{"join.index_reuses", "count"},
	{"query.canonical_ms.p50", "ms"},
	{"store.tree_hits", "count"},
	{"store.evictions", "count"},
	{"store.entries", "count"},
	{"traffic.repeat_read_frac", "ratio"},
	{"trace.overhead_ms", "ms"},
	{"trace.wall_ratio", "ratio"},
	{"trace.span_cover_frac", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, config, *report) error{
	"decompose-cold": runDecomposeCold,
	"query-warm":     func(ctx context.Context, c config, r *report) error { return runQuery(ctx, c, r, false) },
	"query-mixed-rw": func(ctx context.Context, c config, r *report) error { return runQuery(ctx, c, r, true) },
}

// report collects one run's outcome. Every metric starts at 0, so a
// layer a workload does not touch reports 0 rather than going missing.
type report struct {
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
}

func newReport() *report {
	r := &report{values: map[string]float64{}}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		r.values[d.Name] = 0
	}
	return r
}

func (r *report) set(name string, v float64) {
	if _, ok := r.values[name]; !ok {
		panic("undeclared metric " + name)
	}
	r.values[name] = v
}

// problem records a failed check; any problem makes the run incorrect.
func (r *report) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	r.problems = append(r.problems, msg)
}

func (r *report) result(trace bool) result {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metric{Value: r.values[d.Name], Unit: d.Unit}
	}
	return res
}

// checkSeconds rejects a --seconds too short for a query workload's
// open loop to give every window the reads its p90 needs.
func checkSeconds(cfg config) error {
	if cfg.workload == "decompose-cold" {
		return nil
	}
	if n := openWindowReads(cfg.seconds, cfg.workload == "query-mixed-rw"); n < minWindowReads {
		return fmt.Errorf("--seconds %v gives %s %d open-loop reads per window, fewer than the %d its p90 needs", cfg.seconds, cfg.workload, n, minWindowReads)
	}
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "decompose-cold, query-warm or query-mixed-rw")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = report per-layer metrics (adds the in-process replays)")
	fs.StringVar(&cfg.bin, "server", filepath.Join(".bench_build", "htdserve"), "htdserve binary")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "out"), "directory for server logs and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	drive, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, cfg.seconds, trace)
		return 2
	}
	if err := checkSeconds(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: %v\n", err)
		return 2
	}
	if _, err := os.Stat(cfg.bin); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: server binary: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	// Responses are kept in memory until the checks after the timed
	// phase; a lazier collector keeps the generator's GC work (CPU taken
	// from the server under test) low while the load runs.
	debug.SetGCPercent(400)
	rep := newReport()
	err := drive(ctx, cfg, rep)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			err = errors.New("interrupted")
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", cfg.workload, cfg.seed, err)
		return 1
	}
	res := rep.result(cfg.trace)
	for _, d := range endToEnd {
		fmt.Fprintf(os.Stderr, "perfbench: %-18s %12.4f %s\n", d.Name, rep.values[d.Name], d.Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	return 0
}
