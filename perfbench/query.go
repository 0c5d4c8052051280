package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/decomp"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/service"
)

// query-warm and query-mixed-rw: named datasets uploaded once, then
// POST /query by dataset reference in an open loop at queryRate (with
// one op in mutateEvery a write batch in the mixed workload), then a
// short closed loop over the continuing sequence for throughput.
//
// The closed loop must never run out of requests before its time is
// up, or a faster server would report fewer completions. query-warm
// cycles its reads, which are idempotent. query-mixed-rw cannot replay
// a write batch without changing what it does, so its sequence covers
// closedPoolRate requests per second, about ten times the rate this
// workload reaches today; a run that exhausts it is rejected.

const (
	queryRate      = 25.0   // offered requests per second in the open loop
	openShare      = 0.6    // share of --seconds spent in the open loop
	closedPoolRate = 3000.0 // requests per second the closed-loop sequence covers
	replayOps      = 300    // ops of the sequence the in-process replays run
	minWindowReads = 100    // open-loop reads each window's p90 needs
)

// openWindowReads is the fewest open-loop reads any window of a run of
// the given length holds.
func openWindowReads(seconds float64, writes bool) int {
	nOpen := int(queryRate * seconds * openShare)
	if nOpen == 0 {
		return 0
	}
	counts := make([]int, windows)
	for i := 0; i < nOpen; i++ {
		if !writes || i%mutateEvery != mutateEvery-1 {
			counts[i*windows/nOpen]++
		}
	}
	return slices.Min(counts)
}

// bodyInterner keeps one copy of each distinct /query answer body seen
// in the closed loop. Bodies are compared with the values of their
// plan_ms and exec_ms timing fields left out, so a repeated answer
// shares the kept copy; the checks parse the kept copy, which differs
// from the dropped one only in those timings.
type bodyInterner struct {
	seed maphash.Seed
	mu   sync.Mutex
	kept map[uint64][]byte
}

func newBodyInterner() *bodyInterner {
	return &bodyInterner{seed: maphash.MakeSeed(), kept: map[uint64][]byte{}}
}

var timingKeys = [][]byte{[]byte(`"plan_ms":`), []byte(`"exec_ms":`)}

func (bi *bodyInterner) intern(body []byte) []byte {
	var h maphash.Hash
	h.SetSeed(bi.seed)
	rest := body
	for {
		at, key := -1, 0
		for k, tk := range timingKeys {
			if i := bytes.Index(rest, tk); i >= 0 && (at < 0 || i < at) {
				at, key = i, k
			}
		}
		if at < 0 {
			h.Write(rest)
			break
		}
		end := at + len(timingKeys[key])
		h.Write(rest[:end])
		rest = bytes.TrimLeft(rest[end:], "0123456789.eE+-")
	}
	sum := h.Sum64()
	bi.mu.Lock()
	defer bi.mu.Unlock()
	if kept, ok := bi.kept[sum]; ok {
		return kept
	}
	bi.kept[sum] = body
	return body
}

func queryTimeout() time.Duration { return queryTimeoutMS * time.Millisecond }

// uploadAndWarm uploads every dataset, then sends each mix member twice
// so plans are in the store and maintained indexes are built. It
// returns the index builds each member's second (warm) answer reported.
func uploadAndWarm(ctx context.Context, srv *server, in *queryInputs) ([]int64, error) {
	c := newClient()
	for _, spec := range datasetSpecs {
		status, body, err := do(ctx, c, srv.base, request{Method: "PUT", Path: "/data/" + spec.Name, Body: in.Uploads[spec.Name]})
		if err != nil || status != 200 {
			return nil, fmt.Errorf("upload %s: status %d, %v: %s", spec.Name, status, err, body)
		}
	}
	builds := make([]int64, len(in.Bodies))
	for round := 0; round < 2; round++ {
		for k, b := range in.Bodies {
			status, body, err := do(ctx, c, srv.base, request{Method: "POST", Path: "/query", Body: b})
			var w queryWire
			if err == nil && status == 200 {
				err = json.Unmarshal(body, &w)
			}
			if err != nil || status != 200 || w.Exec == nil {
				return nil, fmt.Errorf("warm-up %s: status %d, %v: %.200s", queryMix[k].Name, status, err, body)
			}
			builds[k] = w.Exec.IndexBuilds
		}
	}
	return builds, nil
}

// readRecord is one checked read: which answer it must equal.
type readRecord struct {
	kind    int
	version uint64
	digest  uint64
	done    time.Duration
	phase   int // 0 open loop, 1 closed loop
}

// writeRecord is one committed write batch.
type writeRecord struct {
	mut *mutation
	res dataset.MutationResult
}

func runQuery(ctx context.Context, cfg config, rep *report, writes bool) error {
	openSec := cfg.seconds * openShare
	nOpen := int(queryRate * openSec)
	nClosed := int(closedPoolRate * (cfg.seconds - openSec))
	in := genQueryInputs(cfg.seed, nOpen+nClosed, writes)
	orc, err := newOracle()
	if err != nil {
		return err
	}
	initialRef := make([]uint64, len(queryMix))
	for k, mk := range queryMix {
		if initialRef[k], err = orc.answer(k, in.Initial[mk.Dataset]); err != nil {
			return err
		}
	}

	var warmBuilds []int64
	srv, setup, err := bootMedian(ctx, cfg, queryTimeout(), func(s *server) (err error) {
		warmBuilds, err = uploadAndWarm(ctx, s, in)
		return err
	})
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
	reqs := make([]request, len(in.Ops))
	for i, o := range in.Ops {
		if o.Mut != nil {
			reqs[i] = request{Method: "POST", Path: "/data/" + o.Mut.Dataset + "/mutate", Body: o.Mut.Body, Op: i}
		} else {
			reqs[i] = request{Method: "POST", Path: "/query", Body: in.Bodies[o.Query], Op: i}
		}
	}
	open := openLoop(ctx, client, srv.base, reqs[:nOpen], queryRate)
	closedDur := time.Duration((cfg.seconds - openSec) * float64(time.Second))
	limit := math.MaxInt
	if writes {
		limit = nClosed
	}
	closed := closedLoop(ctx, client, srv.base, reqs[nOpen:], closedDur, limit, newBodyInterner().intern)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if len(closed) >= limit {
		rep.problem("the closed loop sent all %d pre-generated requests before its %v were up; raise closedPoolRate", limit, closedDur)
	}
	after, err := fetchStats(ctx, client, srv.base)
	if err != nil {
		return err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	srv.stop()

	// Everything below runs with the server gone.
	var reads []readRecord
	var writeRecs []writeRecord
	var writeLat, lags []float64
	for phase, samples := range [][]sample{open, closed} {
		for _, s := range samples {
			rep.attempted++
			o := in.Ops[s.Op]
			if phase == 0 {
				lags = append(lags, ms(s.lag()))
				if o.Mut != nil {
					writeLat = append(writeLat, ms(s.latency()))
				}
			}
			if !s.ok() {
				rep.failed++
				rep.problem("op %d: status %d, %v: %.200s", s.Op, s.Status, s.Err, s.Body)
				continue
			}
			if o.Mut != nil {
				var res dataset.MutationResult
				if err := json.Unmarshal(s.Body, &res); err != nil {
					rep.failed++
					rep.problem("op %d: %v", s.Op, err)
					continue
				}
				writeRecs = append(writeRecs, writeRecord{mut: o.Mut, res: res})
				continue
			}
			var w queryWire
			if err := json.Unmarshal(s.Body, &w); err != nil || !w.OK {
				rep.failed++
				rep.problem("op %d: %v %s", s.Op, err, w.Error)
				continue
			}
			// A warm read is a plan-store hit, and builds no index beyond
			// those its warm-up answer built: every base-relation index
			// is maintained and reused. (Indexes over intermediate bag
			// relations are built per query at this commit.)
			if !writes && (!w.PlanCacheHit || w.Exec == nil || w.Exec.IndexBuilds != warmBuilds[o.Query]) {
				rep.failed++
				rep.problem("op %d (%s): warm read with plan_cache_hit=%v, exec %+v, warm-up index builds %d",
					s.Op, queryMix[o.Query].Name, w.PlanCacheHit, w.Exec, warmBuilds[o.Query])
				continue
			}
			reads = append(reads, readRecord{kind: o.Query, version: w.DatasetVersion, digest: w.answerDigest(), done: s.Done, phase: phase})
		}
	}
	wrong := checkReads(rep, orc, in, reads, writeRecs)
	rep.failed += wrong

	for k, mk := range queryMix {
		var xs []float64
		for _, s := range open {
			if o := in.Ops[s.Op]; o.Mut == nil && o.Query == k {
				xs = append(xs, ms(s.latency()))
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: %-12s n=%4d p50 %8.3f ms  p99 %8.3f ms\n", mk.Name, len(xs), median(xs), percentile(xs, 99))
	}
	// Latency and throughput are taken per window and the run reports
	// the median window, so a host stall inside one window does not
	// move the run's figures.
	winLat := make([][]float64, windows)
	for _, s := range open {
		if in.Ops[s.Op].Mut == nil {
			w := s.Op * windows / nOpen
			winLat[w] = append(winLat[w], ms(s.latency()))
		}
	}
	var p50s, p90s []float64
	for w, lat := range winLat {
		if len(lat) < minWindowReads {
			rep.problem("window %d has %d open-loop reads; its p90 needs >= %d", w, len(lat), minWindowReads)
		}
		p50s = append(p50s, median(lat))
		p90s = append(p90s, percentile(lat, 90))
	}
	p50 := median(p50s)
	rep.set("latency_p50_ms", p50)
	rep.set("latency_p90_ms", median(p90s))
	rep.set("throughput_per_s", closedThroughput(closed, closedDur))
	rep.set("server_rss_mb", rss)
	rep.set("http.mutate_ms.p50", median(writeLat))
	rep.set("http.mutate_ms.p95", percentile(writeLat, 95))
	fmt.Fprintf(os.Stderr, "perfbench: lag p50 %.3f p90 %.3f p99 %.3f max %.3f ms\n", percentile(lags, 50), percentile(lags, 90), percentile(lags, 99), percentile(lags, 100))
	// A generator whose p99 lag exceeds the interval between requests
	// no longer offers the stated rate; the run is rejected.
	lag := percentile(lags, 99)
	rep.set("gen.lag_ms.p99", lag)
	if bound := 1000 / queryRate; lag > bound {
		rep.problem("generator lag p99 %.3f ms exceeds the %.1f ms request interval", lag, bound)
	}
	rep.set("error_frac", float64(rep.failed)/float64(max(rep.attempted, 1)))
	rep.set("traffic.repeat_read_frac", repeatReadFrac(reads))
	setSolverDeltas(rep, before, after)
	if cfg.trace {
		return replayQueries(ctx, cfg, in, initialRef, p50, rep)
	}
	return nil
}

// windows is how many equal windows a query run's open loop is split
// into for the per-window latency medians; closedWindows the same for
// the closed loop's throughput. A host stall must cover more than half
// of them to move the run's figure.
const (
	windows       = 3
	closedWindows = 5
)

// closedThroughput is the median over closedWindows windows of d of the
// requests completed per second; completions after d are not counted.
func closedThroughput(closed []sample, d time.Duration) float64 {
	counts := make([]float64, closedWindows)
	for _, s := range closed {
		if w := int(s.Done * closedWindows / d); w < closedWindows {
			counts[w]++
		}
	}
	for w := range counts {
		counts[w] /= (d / closedWindows).Seconds()
	}
	return median(counts)
}

// checkReads compares every read with the oracle's answer over the
// mirrored dataset at the version the read reports, rebuilding each
// version by replaying the committed writes in version order with set
// semantics (and checking each write's reported counts on the way). It
// returns the number of wrong reads and writes.
func checkReads(rep *report, orc *oracle, in *queryInputs, reads []readRecord, writes []writeRecord) int {
	wrong := 0
	for _, spec := range datasetSpecs {
		// The upload is version 1; write n of the dataset commits n+1.
		var ws []writeRecord
		for _, w := range writes {
			if w.mut.Dataset == spec.Name {
				ws = append(ws, w)
			}
		}
		sort.Slice(ws, func(i, j int) bool { return ws[i].res.Version < ws[j].res.Version })
		need := map[uint64][]int{} // version -> indexes into reads
		for i, r := range reads {
			if queryMix[r.kind].Dataset == spec.Name {
				need[r.version] = append(need[r.version], i)
			}
		}
		state := in.Initial[spec.Name].clone()
		version := uint64(1)
		for {
			answers := map[int]uint64{}
			for _, i := range need[version] {
				r := reads[i]
				want, ok := answers[r.kind]
				if !ok {
					var err error
					if want, err = orc.answer(r.kind, state); err != nil {
						rep.problem("oracle: %v", err)
						return wrong + 1
					}
					answers[r.kind] = want
				}
				if r.digest != want {
					wrong++
					rep.problem("%s at %s v%d: answer differs from the from-scratch evaluation", queryMix[r.kind].Name, spec.Name, version)
				}
			}
			delete(need, version)
			if len(ws) == 0 {
				break
			}
			w := ws[0]
			ws = ws[1:]
			version++
			if w.res.Version != version {
				wrong++
				rep.problem("%s: write committed as v%d, expected v%d", spec.Name, w.res.Version, version)
				break
			}
			if got := applyMutation(state, w.mut); got != resultCounts(w.res) {
				wrong++
				rep.problem("%s v%d: write counts %+v, mirror %+v", spec.Name, version, resultCounts(w.res), got)
			}
		}
		for v, idx := range need {
			wrong += len(idx)
			rep.problem("%s: %d reads of v%d, a version no write produced", spec.Name, len(idx), v)
		}
	}
	return wrong
}

// mutCounts are a write batch's effect counts.
type mutCounts struct{ Inserted, Deduped, Deleted, Missed int }

func resultCounts(r dataset.MutationResult) mutCounts {
	return mutCounts{Inserted: r.Inserted, Deduped: r.Deduped, Deleted: r.Deleted, Missed: r.Missed}
}

// applyMutation applies one batch to the mirror in body order (deletes,
// then inserts) with set semantics and returns its effect counts.
func applyMutation(db dbState, m *mutation) mutCounts {
	var c mutCounts
	rel := db[m.Rel]
	for _, t := range m.Delete {
		if rel.delete(t) {
			c.Deleted++
		} else {
			c.Missed++
		}
	}
	for _, t := range m.Insert {
		if rel.insert(t) {
			c.Inserted++
		} else {
			c.Deduped++
		}
	}
	return c
}

// repeatReadFrac is the share of reads, in completion order, whose
// (query, dataset version) an earlier read already answered.
func repeatReadFrac(reads []readRecord) float64 {
	if len(reads) == 0 {
		return 0
	}
	sorted := append([]readRecord(nil), reads...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].phase != sorted[j].phase {
			return sorted[i].phase < sorted[j].phase
		}
		return sorted[i].done < sorted[j].done
	})
	seen := map[[2]uint64]bool{}
	repeats := 0
	for _, r := range sorted {
		key := [2]uint64{uint64(r.kind), r.version}
		if seen[key] {
			repeats++
		}
		seen[key] = true
	}
	return float64(repeats) / float64(len(reads))
}

// replayOp is one op of the replayed prefix, decoded the way the
// server decodes its body (outside any timing).
type replayOp struct {
	kind  int // mix member, or -1 for a write
	req   query.Request
	ds    string
	batch []dataset.Mutation
}

// decodeOps decodes the mix bodies and the first n ops.
func decodeOps(in *queryInputs, n int) ([]query.Request, []replayOp, error) {
	mix := make([]query.Request, len(queryMix))
	for k, mk := range queryMix {
		var wire struct {
			Query     string `json:"query"`
			Dataset   string `json:"dataset"`
			Aggregate string `json:"aggregate"`
			TimeoutMS int64  `json:"timeout_ms"`
		}
		if err := json.Unmarshal(in.Bodies[k], &wire); err != nil {
			return nil, nil, err
		}
		q, err := join.ParseQuery(wire.Query)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", mk.Name, err)
		}
		mix[k] = query.Request{Query: q, Dataset: wire.Dataset, Timeout: time.Duration(wire.TimeoutMS) * time.Millisecond}
		if wire.Aggregate != "" {
			spec, err := join.ParseAggregate(wire.Aggregate)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", mk.Name, err)
			}
			mix[k].Aggregate = &spec
		}
	}
	ops := make([]replayOp, n)
	for i, o := range in.Ops[:n] {
		if o.Mut == nil {
			ops[i] = replayOp{kind: o.Query, req: mix[o.Query]}
			continue
		}
		ops[i] = replayOp{kind: -1, ds: o.Mut.Dataset}
		dec := json.NewDecoder(bytes.NewReader(o.Mut.Body))
		for dec.More() {
			var m dataset.Mutation
			if err := dec.Decode(&m); err != nil {
				return nil, nil, err
			}
			ops[i].batch = append(ops[i].batch, m)
		}
	}
	return mix, ops, nil
}

// replayService boots an in-process service configured like the
// server and brings it to the state the HTTP run's timed phase started
// from: datasets uploaded, every mix member evaluated twice.
func replayService(ctx context.Context, in *queryInputs, mix []query.Request) (*service.Service, *query.Planner, error) {
	svc := service.New(service.Config{DefaultTimeout: queryTimeout()})
	planner := query.NewPlanner(svc)
	for _, spec := range datasetSpecs {
		db, err := join.ParseRelations(string(in.Uploads[spec.Name]))
		if err != nil {
			return nil, nil, err
		}
		if _, err := svc.Datasets().Put("", spec.Name, db); err != nil {
			return nil, nil, err
		}
	}
	for round := 0; round < 2; round++ {
		for k, req := range mix {
			if _, err := planner.Eval(ctx, req); err != nil {
				return nil, nil, fmt.Errorf("replay warm-up %s: %w", queryMix[k].Name, err)
			}
		}
	}
	return svc, planner, nil
}

// replayQueries runs the first replayOps ops in-process twice on fresh
// services: once through query.Planner.Eval (untraced), once through
// tracedEval, which makes the same public calls in the same order with
// a span around each. Answers of the two passes must be equal.
func replayQueries(ctx context.Context, cfg config, in *queryInputs, initialRef []uint64, httpP50 float64, rep *report) error {
	n := min(replayOps, len(in.Ops))
	mix, ops, err := decodeOps(in, n)
	if err != nil {
		return err
	}
	type outcome struct {
		digest uint64
		wall   float64
	}
	pass := func(tr *tracer) ([]outcome, int, int, error) {
		svc, planner, err := replayService(ctx, in, mix)
		if err != nil {
			return nil, 0, 0, err
		}
		out := make([]outcome, n)
		hits, compacted := 0, 0
		for i, o := range ops {
			if o.kind < 0 {
				d, ok := svc.Datasets().Get("", o.ds)
				if !ok {
					return nil, 0, 0, fmt.Errorf("replay: no dataset %s", o.ds)
				}
				sp := -1
				if tr != nil {
					tr.req = i
					sp = tr.begin("dataset.Dataset.Mutate")
				}
				res, err := d.Mutate(o.batch)
				if sp >= 0 {
					tr.end(sp)
				}
				if err != nil {
					return nil, 0, 0, fmt.Errorf("replay write %d: %w", i, err)
				}
				if res.Compacted {
					compacted++
				}
				continue
			}
			if tr != nil {
				tr.req = i
				dg, wall, hit, err := tracedEval(ctx, svc, tr, o.req)
				if err != nil {
					return nil, 0, 0, fmt.Errorf("replay op %d: %w", i, err)
				}
				out[i] = outcome{dg, ms(wall)}
				if hit {
					hits++
				}
				continue
			}
			t0 := time.Now()
			res, err := planner.Eval(ctx, o.req)
			wall := time.Since(t0)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("replay op %d: %w", i, err)
			}
			out[i] = outcome{resultDigest(res), ms(wall)}
		}
		return out, hits, compacted, nil
	}
	untraced, _, _, err := pass(nil)
	if err != nil {
		return err
	}
	tr := newTracer(12 * n)
	traced, hits, compacted, err := pass(tr)
	if err != nil {
		return err
	}
	tr.finish()

	var walls, twalls []float64
	reads, writes := 0, 0
	for i, o := range ops {
		if o.kind < 0 {
			writes++
			continue
		}
		reads++
		walls = append(walls, untraced[i].wall)
		twalls = append(twalls, traced[i].wall)
		if untraced[i].digest != traced[i].digest {
			rep.problem("replay op %d (%s): traced answer differs from Planner.Eval's", i, queryMix[o.kind].Name)
		}
		if writes == 0 && untraced[i].digest != initialRef[o.kind] {
			rep.problem("replay op %d (%s): Planner.Eval answer differs from the from-scratch evaluation", i, queryMix[o.kind].Name)
		}
	}
	setTraceFidelity(rep, tr, "query.Planner.Eval", walls, twalls)
	rep.set("htdserve.edge_ms", httpP50-median(append([]float64(nil), walls...)))
	us := func(name string, p float64) float64 { return 1000 * percentile(tr.durations(name), p) }
	rep.set("tenant.admit_us.p50", us("tenant.Wall.Admit", 50))
	rep.set("tenant.admit_us.p99", us("tenant.Wall.Admit", 99))
	rep.set("dataset.resolve_us.p50", us("dataset.Registry.Resolve", 50))
	rep.set("decomp.checkhd_us.p50", us("decomp.CheckHD", 50))
	rep.set("service.plan_ms.p50", median(tr.durations("service.Service.Submit")))
	rep.set("service.plan_hit_frac", float64(hits)/float64(max(reads, 1)))
	evals, aggs := tr.durations("join.EvaluateCtx"), tr.durations("join.AggregateCtx")
	rep.set("join.eval_ms.p50", median(evals))
	rep.set("join.eval_ms.p99", percentile(evals, 99))
	rep.set("join.aggregate_ms.p50", median(aggs))
	rep.set("join.aggregate_ms.p99", percentile(aggs, 99))
	rep.set("query.canonical_ms.p50", median(tr.durations("query.Canonical")))
	mut := tr.durations("dataset.Dataset.Mutate")
	rep.set("dataset.mutate_ms.p50", median(mut))
	rep.set("dataset.mutate_ms.p95", percentile(mut, 95))
	if writes > 0 {
		rep.set("dataset.compaction_frac", float64(compacted)/float64(writes))
	}
	return tr.write(filepath.Join(cfg.out, "spans-"+cfg.workload+"-seed"+strconv.FormatInt(cfg.seed, 10)+".json"))
}

// tracedEval answers req the way query.Planner.Eval does, calling the
// same public functions in the same order, each inside a span. After
// the root span it times decomp.CheckHD on the plan: a replica of the
// witness revalidation service.Submit performs inside a store hit. An
// error leaves spans open; the caller abandons the replay then.
func tracedEval(ctx context.Context, svc *service.Service, tr *tracer, req query.Request) (digest uint64, wall time.Duration, hit bool, err error) {
	root := tr.begin("query.Planner.Eval")
	sp := tr.begin("tenant.Wall.Admit")
	lease, err := svc.Tenants().Admit(ctx, req.Tenant)
	tr.end(sp)
	if err != nil {
		return 0, 0, false, err
	}
	sp = tr.begin("dataset.Registry.Resolve")
	snap, err := svc.Datasets().Resolve(req.Tenant, req.Dataset, req.AtVersion)
	tr.end(sp)
	if err != nil {
		return 0, 0, false, err
	}
	sp = tr.begin("join.Query.Hypergraph")
	h, err := req.Query.Hypergraph()
	tr.end(sp)
	if err != nil {
		return 0, 0, false, err
	}
	if req.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Timeout)
		defer cancel()
	}
	sp = tr.begin("service.Service.Submit")
	res := svc.Submit(ctx, service.Request{
		H: h, Mode: service.ModeOptimal, K: h.NumEdges(),
		Timeout: req.Timeout, Tenant: req.Tenant, TenantAdmitted: true,
	})
	tr.end(sp)
	if res.Err != nil || !res.OK {
		return 0, 0, false, fmt.Errorf("plan: ok=%v, %v", res.OK, res.Err)
	}
	var exec join.ExecStats
	opts := join.EvalOptions{Parallelism: 1, Tokens: svc.Budget(), Stats: &exec}
	if req.Aggregate != nil {
		sp = tr.begin("join.AggregateCtx")
		agg, aerr := join.AggregateCtx(ctx, req.Query, snap.DB, res.Decomp, *req.Aggregate, opts)
		tr.end(sp)
		err = aerr
		digest = aggDigest(agg)
	} else {
		sp = tr.begin("join.EvaluateCtx")
		rel, eerr := join.EvaluateCtx(ctx, req.Query, snap.DB, res.Decomp, opts)
		tr.end(sp)
		err = eerr
		if err == nil {
			sp = tr.begin("query.Canonical")
			rows, cerr := query.Canonical(rel)
			tr.end(sp)
			err = cerr
			if err == nil {
				digest = relationDigest(rows)
			}
		}
	}
	sp = tr.begin("tenant.Lease.Done")
	lease.Done(err != nil)
	tr.end(sp)
	if err != nil {
		return 0, 0, false, err
	}
	wall = tr.end(root)
	sp = tr.begin("decomp.CheckHD")
	if cerr := decomp.CheckHD(res.Decomp); cerr != nil {
		err = cerr
	}
	tr.end(sp)
	return digest, wall, res.CacheHit, err
}
