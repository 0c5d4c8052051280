package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/hypergraph"
	"repro/internal/service"
)

// decompose-cold: POST /decompose in optimal mode over the admitted
// HyperBench-sim instances, two closed-loop clients, the store purged
// before every pass so every request runs the solver.

func decompTimeout() time.Duration { return decompTimeoutMS * time.Millisecond }

// solveRequest is the service request the server builds for one
// decompose-cold body.
func solveRequest(h *hypergraph.Hypergraph, noSharedMemo bool) service.Request {
	return service.Request{
		H: h, Mode: service.ModeOptimal, K: decompWidthCeiling,
		Timeout: decompTimeout(), NoSharedMemo: noSharedMemo,
	}
}

// referenceWidths solves every instance in-process, before anything is
// timed, on maxConns goroutines.
func referenceWidths(ctx context.Context, insts []decompInstance) ([]int, error) {
	svc := service.New(service.Config{})
	widths := make([]int, len(insts))
	errs := make([]error, len(insts))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < maxConns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				h, err := hypergraph.ParseString(insts[i].Text)
				if err != nil {
					errs[i] = err
					continue
				}
				res := svc.Submit(ctx, solveRequest(h, true))
				switch {
				case res.Err != nil:
					errs[i] = res.Err
				case !res.OK:
					errs[i] = fmt.Errorf("no decomposition of width <= %d", decompWidthCeiling)
				case res.Width != insts[i].KnownHW:
					errs[i] = fmt.Errorf("width %d, known %d", res.Width, insts[i].KnownHW)
				}
				widths[i] = res.Width
			}
		}()
	}
	for i := range insts {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference solve of %s: %w", insts[i].Name, err)
		}
	}
	return widths, nil
}

func runDecomposeCold(ctx context.Context, cfg config, rep *report) error {
	insts := decompInputs(cfg.seed)
	refs, err := referenceWidths(ctx, insts)
	if err != nil {
		return err
	}
	srv, setup, err := bootMedian(ctx, cfg, decompTimeout(), nil)
	if err != nil {
		return err
	}
	defer srv.stop()
	rep.set("setup_s", setup)

	client := newClient()
	before, err := fetchStats(ctx, client, srv.base)
	if err != nil {
		return err
	}
	reqs := make([]request, len(insts))
	for i, in := range insts {
		reqs[i] = request{Method: "POST", Path: "/decompose", Body: in.Body, Op: i}
	}
	// Passes run until --seconds have passed and the p90 has 100
	// samples (on a slow host, a few seconds longer). Throughput is
	// taken per pass and the run reports the median pass, so a host
	// stall inside one pass does not move it. The p90 is over all of
	// the run's requests. The p50 is the geometric mean, over the
	// non-trivial instances, of each instance's median latency. A
	// request that solves in about a millisecond is timed mostly by
	// goroutine hand-offs between CPUs, whose run-to-run spread on a
	// shared virtual machine exceeded any bound the benchmark could set.
	// The median of the seven instance medians was in effect one
	// instance, syn-cylinder-8, which always shares the CPUs with the
	// two-second syn-cylinder-18 solve; it spread 0.34 over five seeds,
	// the geometric mean 0.07. A speed-up of any one instance moves the
	// geometric mean in proportion.
	var samples []sample
	var passRate []float64
	measure := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for time.Since(start) < measure || len(samples) < 100 {
		if status, _, err := do(ctx, client, srv.base, request{Method: "POST", Path: "/cache/purge"}); err != nil || status != 200 {
			return fmt.Errorf("purge: status %d, %v", status, err)
		}
		passStart := time.Now()
		pass := closedLoop(ctx, client, srv.base, reqs, time.Hour, len(reqs), nil)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		passRate = append(passRate, float64(len(pass))/time.Since(passStart).Seconds())
		samples = append(samples, pass...)
	}
	after, err := fetchStats(ctx, client, srv.base)
	if err != nil {
		return err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	var edge []sample
	if cfg.trace {
		if edge, err = serialSmallPasses(ctx, client, srv.base, insts); err != nil {
			return err
		}
	}
	srv.stop()

	// Checks and metrics, all after the server is gone.
	lat := make([]float64, 0, len(samples))
	instLat := make([][]float64, len(insts))
	excess := math.Inf(-1)
	for _, s := range samples {
		lat = append(lat, ms(s.latency()))
		instLat[s.Op] = append(instLat[s.Op], ms(s.latency()))
		if w := checkDecompSample(rep, insts, refs, s); w != nil && w.Stats != nil {
			excess = math.Max(excess, float64(w.Stats.MaxDepth)-math.Ceil(math.Log2(float64(insts[s.Op].Edges))))
		}
	}
	for _, s := range edge {
		checkDecompSample(rep, insts, refs, s)
	}
	if runs := after.SolverRuns - before.SolverRuns; runs != int64(len(samples)) {
		rep.problem("solver runs %d != instances sent %d", runs, len(samples))
	}
	var instP50 []float64
	for i, xs := range instLat {
		fmt.Fprintf(os.Stderr, "perfbench: %-24s nontrivial=%-5v n=%3d p50 %9.3f ms\n", insts[i].Name, insts[i].nontrivial(), len(xs), median(xs))
		if insts[i].nontrivial() {
			instP50 = append(instP50, median(xs))
		}
	}
	rep.set("latency_p50_ms", geomean(instP50))
	rep.set("latency_p90_ms", percentile(lat, 90))
	fmt.Fprintf(os.Stderr, "perfbench: pass rates %.3f /s\n", passRate)
	rep.set("throughput_per_s", median(passRate))
	rep.set("server_rss_mb", rss)
	rep.set("error_frac", float64(rep.failed)/float64(max(rep.attempted, 1)))
	setSolverDeltas(rep, before, after)
	if !math.IsInf(excess, -1) {
		rep.set("logk.depth_excess", excess)
	}
	if cfg.trace {
		return replayDecompose(ctx, cfg, insts, refs, edge, rep)
	}
	return nil
}

// checkDecompSample counts s as attempted and checks its answer: a
// decomposition of the sent hypergraph whose width is the reference
// width, solved rather than read from the store. It returns the parsed
// answer, or nil after recording a failure.
func checkDecompSample(rep *report, insts []decompInstance, refs []int, s sample) *decompWire {
	rep.attempted++
	in := insts[s.Op]
	if !s.ok() {
		rep.failed++
		rep.problem("%s: status %d, %v: %.200s", in.Name, s.Status, s.Err, s.Body)
		return nil
	}
	w, err := parseDecompWire(s.Body)
	if err == nil {
		err = checkDecomposition(in.Text, w, refs[s.Op])
	}
	if err == nil && w.CacheHit {
		err = fmt.Errorf("answered from the store after a purge")
	}
	if err != nil {
		rep.failed++
		rep.problem("%s: %v", in.Name, err)
		return nil
	}
	return w
}

// edgeRounds is how many serial passes over the small instances
// htdserve.edge_ms takes its medians from, over HTTP and in-process.
const edgeRounds = 15

// smallInstances returns the indexes of the instances that are not
// nontrivial: those whose solve is short enough for the HTTP edge to
// show beside it.
func smallInstances(insts []decompInstance) []int {
	var small []int
	for i, in := range insts {
		if !in.nontrivial() {
			small = append(small, i)
		}
	}
	return small
}

// serialSmallPasses sends the small instances one at a time from one
// client, edgeRounds times, purging the store before each pass, so the
// latencies hold no contention with another request.
func serialSmallPasses(ctx context.Context, c *http.Client, base string, insts []decompInstance) ([]sample, error) {
	var out []sample
	for r := 0; r < edgeRounds; r++ {
		if status, _, err := do(ctx, c, base, request{Method: "POST", Path: "/cache/purge"}); err != nil || status != 200 {
			return nil, fmt.Errorf("purge: status %d, %v", status, err)
		}
		for _, i := range smallInstances(insts) {
			s := sample{Op: i}
			t0 := time.Now()
			s.Status, s.Body, s.Err = do(ctx, c, base, request{Method: "POST", Path: "/decompose", Body: insts[i].Body})
			s.Done = time.Since(t0)
			out = append(out, s)
		}
	}
	return out, ctx.Err()
}

// geomean is the geometric mean of xs, all positive.
func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// perInstanceMedian is the median over instances of each instance's
// median latency in samples.
func perInstanceMedian(samples []sample) float64 {
	byInst := map[int][]float64{}
	for _, s := range samples {
		byInst[s.Op] = append(byInst[s.Op], ms(s.latency()))
	}
	var meds []float64
	for _, xs := range byInst {
		meds = append(meds, median(xs))
	}
	return median(meds)
}

// replayDecompose runs one pass in-process twice — untraced, then with
// a span around each call the server's /decompose handler makes — on a
// fresh (empty) store each time.
func replayDecompose(ctx context.Context, cfg config, insts []decompInstance, refs []int, edge []sample, rep *report) error {
	pass := func(tr *tracer) ([]float64, error) {
		svc := service.New(service.Config{})
		walls := make([]float64, len(insts))
		for i, in := range insts {
			var text struct {
				Hypergraph string `json:"hypergraph"`
			}
			if err := json.Unmarshal(in.Body, &text); err != nil {
				return nil, err
			}
			var h *hypergraph.Hypergraph
			var res service.Result
			var err error
			if tr == nil {
				t0 := time.Now()
				h, err = hypergraph.ParseString(text.Hypergraph)
				if err == nil {
					res = svc.Submit(ctx, solveRequest(h, false))
				}
				walls[i] = ms(time.Since(t0))
			} else {
				tr.req = i
				root := tr.begin("htdserve.runJob")
				sp := tr.begin("hypergraph.ParseString")
				h, err = hypergraph.ParseString(text.Hypergraph)
				tr.end(sp)
				if err == nil {
					sp = tr.begin("service.Service.Submit")
					res = svc.Submit(ctx, solveRequest(h, false))
					tr.end(sp)
				}
				walls[i] = ms(tr.end(root))
			}
			if err == nil && res.Err != nil {
				err = res.Err
			}
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", in.Name, err)
			}
			if res.Width != refs[i] || res.CacheHit {
				rep.problem("replay %s: width %d (cache hit %v), reference %d", in.Name, res.Width, res.CacheHit, refs[i])
			}
		}
		return walls, nil
	}
	untraced, err := pass(nil)
	if err != nil {
		return err
	}
	tr := newTracer(4 * len(insts))
	traced, err := pass(tr)
	if err != nil {
		return err
	}
	tr.finish()
	setTraceFidelity(rep, tr, "htdserve.runJob", untraced, traced)
	// The HTTP edge: the serial HTTP passes over the small instances
	// against the same serial passes in-process, the store purged
	// before each pass in both.
	svc := service.New(service.Config{})
	var inproc []sample
	for r := 0; r < edgeRounds; r++ {
		svc.Store().Purge()
		for _, i := range smallInstances(insts) {
			s := sample{Op: i}
			t0 := time.Now()
			h, err := hypergraph.ParseString(insts[i].Text)
			if err != nil {
				return err
			}
			res := svc.Submit(ctx, solveRequest(h, false))
			s.Done = time.Since(t0)
			if res.Err != nil || res.Width != refs[i] || res.CacheHit {
				rep.problem("edge replay %s: width %d (cache hit %v, %v), reference %d", insts[i].Name, res.Width, res.CacheHit, res.Err, refs[i])
			}
			inproc = append(inproc, s)
		}
	}
	rep.set("htdserve.edge_ms", perInstanceMedian(edge)-perInstanceMedian(inproc))
	solve := tr.durations("service.Service.Submit")
	rep.set("service.solve_ms.p50", median(solve))
	rep.set("service.solve_ms.p90", percentile(solve, 90))
	rep.set("hypergraph.parse_ms.p50", median(tr.durations("hypergraph.ParseString")))
	return tr.write(filepath.Join(cfg.out, "spans-"+cfg.workload+"-seed"+strconv.FormatInt(cfg.seed, 10)+".json"))
}

// traceTolerance bounds how far the traced replay's request walls may
// drift from the untraced ones (median ratio, request by request)
// before the replay no longer stands for the code it mirrors. It is
// wide because decompose-cold requests are single racy solves or
// millisecond requests timed by goroutine hand-offs: their ratio ran
// from 0.81 to 1.35 between two passes of unchanged code, while the
// query replays stay within 10%.
const traceTolerance = 0.5

// setTraceFidelity reports tracing overhead (the difference of the mean
// walls), the median traced/untraced wall ratio (failing the run
// outside traceTolerance) and span coverage.
func setTraceFidelity(rep *report, tr *tracer, root string, untraced, traced []float64) {
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(max(len(xs), 1))
	}
	rep.set("trace.overhead_ms", mean(traced)-mean(untraced))
	// The median of per-request ratios: one racy solve that happened to
	// run long in one pass must not decide the check.
	ratios := make([]float64, len(traced))
	for i := range traced {
		ratios[i] = traced[i] / untraced[i]
	}
	ratio := median(ratios)
	rep.set("trace.wall_ratio", ratio)
	if math.Abs(ratio-1) > traceTolerance {
		rep.problem("traced replay walls are %.3fx the untraced ones (tolerance %.2f)", ratio, traceTolerance)
	}
	rep.set("trace.span_cover_frac", tr.cover(root))
}
