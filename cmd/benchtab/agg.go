package main

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"time"

	htd "repro"
	"repro/internal/harness"
)

// aggExperiment measures the aggregate pushdown engine against
// materialise-then-fold on high-output instances: star queries whose
// answer count is the product of the arm fan-outs, so the result set
// dwarfs every bag relation. Both sides run the same plan on the same
// indexed executor; the only difference is whether the answer rows are
// materialised before folding. The experiment also verifies the
// row-budget flip: with max_rows below the answer count the row form
// aborts with ErrRowBudget while the pushdown — whose state is bounded
// by the group count — still answers. With -benchjson the measurements
// are written as the benchmark JSON artifact (BENCH_PR6.json in CI).
func aggExperiment(ctx context.Context, cfg harness.Config, jsonPath string) (*harness.Table, error) {
	type bucket struct {
		name    string
		arms    int // atoms R_i(c, x_i) sharing the centre variable
		centers int
		leaves  int // per-centre fan-out of each arm
		budget  int // max_rows the row form must blow
	}
	buckets := []bucket{
		// answers = centers * leaves^arms.
		{"star-3x20 (40k rows)", 3, 5, 20, 10_000},
		{"star-4x16 (131k rows)", 4, 2, 16, 10_000},
		{"star-4x24 (663k rows)", 4, 2, 24, 100_000},
	}

	out := benchFile{
		Experiment:  "agg",
		GeneratedBy: "cmd/benchtab",
		KMax:        cfg.KMax,
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
	}
	t := &harness.Table{
		Title: "Aggregate pushdown vs materialise-then-fold (COUNT over star queries)",
		Headers: []string{"Bucket", "answers", "groups",
			"pushdown-ms", "materialise-ms", "speedup", "budget-flip"},
	}

	for _, b := range buckets {
		q, db := starAggInstance(b.arms, b.centers, b.leaves)
		svc := htd.NewService(htd.ServiceConfig{
			TokenBudget:    cfg.Workers,
			MaxConcurrent:  2,
			MaxQueue:       16,
			DefaultTimeout: time.Duration(cfg.KMax) * cfg.Timeout,
		})
		planner := htd.NewQueryPlanner(svc)
		countSpec := htd.AggregateSpec{Kind: htd.AggCount}
		groupSpec := htd.AggregateSpec{Kind: htd.AggCount, GroupBy: []string{"c"}}

		// Warm the plan so both sides measure execution, not the solve.
		warm, err := planner.Eval(ctx, htd.QueryRequest{Query: q, DB: db, Aggregate: &countSpec})
		if err != nil {
			svc.Close()
			return nil, fmt.Errorf("bucket %s: warm plan: %w", b.name, err)
		}
		answers, _ := warm.Agg.Value()

		const passes = 3
		timed := func(req htd.QueryRequest) (float64, htd.QueryResult, error) {
			var best float64
			var res htd.QueryResult
			for p := 0; p < passes; p++ {
				start := time.Now()
				r, err := planner.Eval(ctx, req)
				if err != nil {
					return 0, res, err
				}
				if ms := float64(time.Since(start)) / float64(time.Millisecond); p == 0 || ms < best {
					best, res = ms, r
				}
			}
			return best, res, nil
		}

		pushMS, pushRes, err := timed(htd.QueryRequest{Query: q, DB: db, Aggregate: &countSpec})
		if err != nil {
			svc.Close()
			return nil, fmt.Errorf("bucket %s: pushdown: %w", b.name, err)
		}
		matMS, matRes, err := timed(htd.QueryRequest{Query: q, DB: db})
		if err != nil {
			svc.Close()
			return nil, fmt.Errorf("bucket %s: materialise: %w", b.name, err)
		}
		foldStart := time.Now()
		folded, err := htd.AggregateRows(matRes.Rows, countSpec)
		if err != nil {
			svc.Close()
			return nil, fmt.Errorf("bucket %s: fold: %w", b.name, err)
		}
		matMS += float64(time.Since(foldStart)) / float64(time.Millisecond)

		// Differential wall before reporting: both sides must agree, for
		// the scalar count and for the grouped form.
		if !reflect.DeepEqual(*pushRes.Agg, folded) {
			svc.Close()
			return nil, fmt.Errorf("bucket %s: pushdown %+v != fold %+v", b.name, pushRes.Agg, folded)
		}
		pushGrouped, err := planner.Eval(ctx, htd.QueryRequest{Query: q, DB: db, Aggregate: &groupSpec})
		if err != nil {
			svc.Close()
			return nil, fmt.Errorf("bucket %s: grouped pushdown: %w", b.name, err)
		}
		foldGrouped, err := htd.AggregateRows(matRes.Rows, groupSpec)
		if err != nil {
			svc.Close()
			return nil, fmt.Errorf("bucket %s: grouped fold: %w", b.name, err)
		}
		if !reflect.DeepEqual(*pushGrouped.Agg, foldGrouped) {
			svc.Close()
			return nil, fmt.Errorf("bucket %s: grouped pushdown != grouped fold", b.name)
		}

		// The row-budget flip: the row form must blow the budget, the
		// pushdown under the identical budget must still answer.
		if _, err := planner.Eval(ctx, htd.QueryRequest{Query: q, DB: db, MaxRows: b.budget}); !errors.Is(err, htd.ErrRowBudget) {
			svc.Close()
			return nil, fmt.Errorf("bucket %s: row form under budget %d: got %v, want ErrRowBudget", b.name, b.budget, err)
		}
		budgeted, err := planner.Eval(ctx, htd.QueryRequest{Query: q, DB: db, MaxRows: b.budget, Aggregate: &countSpec})
		if err != nil {
			svc.Close()
			return nil, fmt.Errorf("bucket %s: pushdown under budget %d: %w", b.name, b.budget, err)
		}
		if v, _ := budgeted.Agg.Value(); v != answers {
			svc.Close()
			return nil, fmt.Errorf("bucket %s: budgeted pushdown counted %d, want %d", b.name, v, answers)
		}
		svc.Close()

		speedup := matMS / pushMS
		out.Benchmarks = append(out.Benchmarks,
			benchEntry{
				Name:    "agg-pushdown/" + b.name,
				NsPerOp: pushMS * 1e6,
				Ops:     1, Solved: 1, WallMS: pushMS,
				Workers: cfg.Workers, Rounds: passes,
				Notes: fmt.Sprintf("COUNT of %d answers by per-bag partial aggregates; no row materialised; answers under max_rows=%d too", answers, b.budget),
			},
			benchEntry{
				Name:    "agg-materialise/" + b.name,
				NsPerOp: matMS * 1e6,
				Ops:     1, Solved: 1, WallMS: matMS,
				Workers: cfg.Workers, Rounds: passes,
				Notes: fmt.Sprintf("same plan, rows materialised then folded; %.1fx slower than pushdown; aborts with ErrRowBudget at max_rows=%d", speedup, b.budget),
			})
		t.AddRow(b.name, answers, len(pushGrouped.Agg.Groups),
			fmt.Sprintf("%.2f", pushMS), fmt.Sprintf("%.1f", matMS),
			fmt.Sprintf("%.1fx", speedup), "ok")
	}
	t.Notes = append(t.Notes,
		"star query R0(c,x0), ..., R{a-1}(c,x{a-1}): answers = centers x leaves^arms, bags stay at centers x leaves tuples",
		"pushdown: COUNT folded during the bottom-up pass, per-bag partial aggregates keyed by carried group variables",
		"materialise: the identical warm plan enumerates all answers, then AggregateRows folds them",
		"budget-flip: with max_rows below the answer count the row form aborts (ErrRowBudget) while the pushdown still answers",
		"both forms verified equal (scalar and grouped by the centre variable) before any number is reported")

	if jsonPath != "" {
		if err := writeBenchJSON(jsonPath, out); err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, "benchmark JSON written to "+jsonPath)
	}
	return t, nil
}

// starAggInstance builds the star query R0(c,x0), ..., R{arms-1}(c,x{arms-1})
// with each relation holding every (centre, leaf) pair: the answer
// count is centers*leaves^arms while every relation (= every width-1
// bag) has only centers*leaves tuples — the shape where pushdown's
// advantage over materialisation is the answer/input ratio itself.
func starAggInstance(arms, centers, leaves int) (htd.CQ, htd.Database) {
	var q htd.CQ
	db := htd.Database{}
	for a := 0; a < arms; a++ {
		name := fmt.Sprintf("R%d", a)
		q.Atoms = append(q.Atoms, htd.CQAtom{
			Relation: name,
			Vars:     []string{"c", fmt.Sprintf("x%d", a)},
		})
		rel := htd.NewRelation("c1", "c2")
		for c := 0; c < centers; c++ {
			for l := 0; l < leaves; l++ {
				rel.Add(c, l)
			}
		}
		db[name] = rel
	}
	return q, db
}
