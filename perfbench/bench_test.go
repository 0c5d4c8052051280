package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestInputsSeeded: the same seed gives byte-identical generated inputs,
// another seed different ones, for both input generators.
func TestInputsSeeded(t *testing.T) {
	decomp := func(seed int64) []byte {
		var b bytes.Buffer
		for _, in := range decompInputs(seed) {
			b.Write(in.Body)
			b.WriteByte('\n')
		}
		return b.Bytes()
	}
	queries := func(seed int64) []byte {
		in := genQueryInputs(seed, 200, true)
		var b bytes.Buffer
		for _, spec := range datasetSpecs {
			b.Write(in.Uploads[spec.Name])
		}
		for _, o := range in.Ops {
			if o.Mut != nil {
				b.Write(o.Mut.Body)
			} else {
				b.Write(in.Bodies[o.Query])
			}
			b.WriteByte('\n')
		}
		return b.Bytes()
	}
	for name, gen := range map[string]func(int64) []byte{"decompose": decomp, "query": queries} {
		a, b, c := gen(7), gen(7), gen(8)
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 twice gave different inputs", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
}

// TestDecompFilter: the admitted instance set is non-empty, the same for
// every seed, and within the filter's bounds.
func TestDecompFilter(t *testing.T) {
	names := func(seed int64) []string {
		var out []string
		for _, in := range decompInputs(seed) {
			if in.Edges > decompMaxEdges || in.KnownHW < 1 || in.KnownHW > decompMaxKnownHW {
				t.Errorf("%s admitted: |E|=%d, hw=%d", in.Name, in.Edges, in.KnownHW)
			}
			out = append(out, in.Name)
		}
		return out
	}
	a, b := names(1), names(99)
	if len(a) < 10 {
		t.Fatalf("only %d instances admitted", len(a))
	}
	set := map[string]bool{}
	for _, n := range a {
		set[n] = true
	}
	for _, n := range b {
		if !set[n] {
			t.Errorf("seed 99 admits %s, seed 1 does not", n)
		}
	}
	if len(a) != len(b) {
		t.Errorf("seed 1 admits %d instances, seed 99 %d", len(a), len(b))
	}
}

// TestOracleMatchesPlanner: the from-scratch oracle and query.Planner
// agree on every mix member, before and after a write batch.
func TestOracleMatchesPlanner(t *testing.T) {
	in := genQueryInputs(3, 10, true)
	orc, err := newOracle()
	if err != nil {
		t.Fatal(err)
	}
	mix, ops, err := decodeOps(in, len(in.Ops))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	svc, planner, err := replayService(ctx, in, mix)
	if err != nil {
		t.Fatal(err)
	}
	state := map[string]dbState{}
	for name, db := range in.Initial {
		state[name] = db.clone()
	}
	check := func(when string) {
		for k, req := range mix {
			res, err := planner.Eval(ctx, req)
			if err != nil {
				t.Fatalf("%s %s: %v", when, queryMix[k].Name, err)
			}
			got := resultDigest(res)
			want, err := orc.answer(k, state[queryMix[k].Dataset])
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s %s: planner and oracle disagree", when, queryMix[k].Name)
			}
		}
	}
	check("initial")
	for i, o := range in.Ops {
		if o.Mut == nil {
			continue
		}
		d, _ := svc.Datasets().Get("", o.Mut.Dataset)
		res, err := d.Mutate(ops[i].batch)
		if err != nil {
			t.Fatal(err)
		}
		if got := applyMutation(state[o.Mut.Dataset], o.Mut); got != resultCounts(res) {
			t.Errorf("write %d: server counts %+v, mirror %+v", i, resultCounts(res), got)
		}
	}
	check("after writes")
}

// TestBenchmarkJSONMatches: BENCHMARK.json declares exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	for _, pair := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(pair.json) != len(pair.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(pair.json), len(pair.defs))
			continue
		}
		for i, m := range pair.json {
			if m.Name != pair.defs[i].Name || m.Unit != pair.defs[i].Unit {
				t.Errorf("metric %d: BENCHMARK.json %s/%s, program %s/%s", i, m.Name, m.Unit, pair.defs[i].Name, pair.defs[i].Unit)
			}
		}
	}
}

// TestClosedLoopOutlastsItsRequests: a closed loop with no limit keeps
// cycling its requests until its time is up, one with a limit stops at
// it, and answers that differ only in their timings share one body.
func TestClosedLoopOutlastsItsRequests(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"ok":true,"rows":[[1]],"plan_ms":%d.5,"exec_ms":%d}`, n.Add(1), n.Load()*7)
	}))
	defer srv.Close()
	reqs := []request{{Method: "POST", Path: "/q", Op: 0}, {Method: "POST", Path: "/q", Op: 1}}
	c := newClient()
	cycled := closedLoop(context.Background(), c, srv.URL, reqs, 200*time.Millisecond, math.MaxInt, newBodyInterner().intern)
	if len(cycled) <= len(reqs) {
		t.Fatalf("unlimited closed loop sent %d requests in 200ms", len(cycled))
	}
	for _, s := range cycled {
		if !s.ok() || &s.Body[0] != &cycled[0].Body[0] {
			t.Fatalf("sample %+v does not share the first body %q", s, cycled[0].Body)
		}
	}
	if limited := closedLoop(context.Background(), c, srv.URL, reqs, time.Hour, 3, nil); len(limited) != 3 {
		t.Errorf("closed loop with limit 3 sent %d requests", len(limited))
	}
}

// TestBodyInterner: only the plan_ms and exec_ms values are ignored.
func TestBodyInterner(t *testing.T) {
	bi := newBodyInterner()
	a := bi.intern([]byte(`{"rows":[[1,2]],"plan_ms":0.25,"exec_ms":3.5e-2,"dataset_version":4}`))
	cases := []struct {
		body   string
		shared bool
	}{
		{`{"rows":[[1,2]],"plan_ms":12,"exec_ms":0.5,"dataset_version":4}`, true},
		{`{"rows":[[1,3]],"plan_ms":0.25,"exec_ms":3.5e-2,"dataset_version":4}`, false},
		{`{"rows":[[1,2]],"plan_ms":0.25,"exec_ms":3.5e-2,"dataset_version":5}`, false},
	}
	for _, c := range cases {
		if got := bi.intern([]byte(c.body)); (&got[0] == &a[0]) != c.shared {
			t.Errorf("%s: shared %v, want %v", c.body, !c.shared, c.shared)
		}
	}
}

// TestSecondsFloor: a query run too short for 100 open-loop reads per
// window is refused up front; decompose-cold has no such floor.
func TestSecondsFloor(t *testing.T) {
	for _, c := range []struct {
		workload string
		seconds  float64
		ok       bool
	}{
		{"query-warm", 19, false}, {"query-warm", 20, true},
		{"query-mixed-rw", 24, false}, {"query-mixed-rw", 25, true},
		{"query-mixed-rw", 30, true}, {"decompose-cold", 1, true},
	} {
		if err := checkSeconds(config{workload: c.workload, seconds: c.seconds}); (err == nil) != c.ok {
			t.Errorf("%s --seconds %v: %v, want ok=%v", c.workload, c.seconds, err, c.ok)
		}
	}
	if code := run([]string{"-workload", "query-warm", "-seconds", "16"}, io.Discard); code != 2 {
		t.Errorf("query-warm --seconds 16 exited %d, want 2", code)
	}
}

// TestRunShRefusesIncompleteTree: run.sh exits non-zero, printing no
// result, in a directory holding only the benchmark's own files.
func TestRunShRefusesIncompleteTree(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile("run.sh")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "perfbench", "run.sh"), script, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "query-warm", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("run.sh succeeded in an incomplete tree: %s", out)
	}
	if len(bytes.TrimSpace(out)) != 0 {
		t.Errorf("run.sh printed %q", out)
	}
}

// TestInterruptLeavesNoProcess starts a real run, interrupts it once the
// server is up, and checks that the benchmark exits without a result
// and that no server process outlives it.
func TestInterruptLeavesNoProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots htdserve")
	}
	dir := t.TempDir()
	server := filepath.Join(dir, "htdserve")
	bench := filepath.Join(dir, "perfbench")
	for _, b := range [][]string{{server, "../cmd/htdserve"}, {bench, "."}} {
		if out, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", b[1], err, out)
		}
	}
	cmd := exec.Command(bench, "-workload", "query-warm", "-seed", "1", "-seconds", "30", "-trace", "0",
		"-server", server, "-out", filepath.Join(dir, "out"))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	deadline := time.Now().Add(30 * time.Second)
	for len(processesRunning(server)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never started")
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(2 * time.Second) // into setup or the timed phase
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("interrupted run exited 0")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("benchmark did not exit within 30s of SIGINT")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("interrupted run printed a result: %s", stdout.String())
	}
	if pids := processesRunning(server); len(pids) > 0 {
		t.Errorf("server processes still alive after the benchmark exited: %v", pids)
	}
}

// processesRunning returns the pids of live (not zombie) processes
// whose executable is bin.
func processesRunning(bin string) []int {
	entries, _ := os.ReadDir("/proc")
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err != nil || exe != bin {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		if f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:])); len(f) > 0 && f[0] == "Z" {
			continue
		}
		pids = append(pids, pid)
	}
	return pids
}
