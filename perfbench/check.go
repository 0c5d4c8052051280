package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	htd "repro"
	"repro/internal/bitset"
	"repro/internal/decomp"
	"repro/internal/hypergraph"
	"repro/internal/join"
	"repro/internal/query"
)

// Answer checking. Nothing here runs during a timed phase: responses
// are kept as bytes while the load runs and checked afterwards.

// digest fingerprints one canonical answer: the answer columns, the
// rows (or aggregate groups) in order, and the aggregate values.
func digest(vars []string, rows [][]int, values []int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	word(int64(len(vars)))
	for _, v := range vars {
		h.Write([]byte(v))
		h.Write([]byte{0})
	}
	word(int64(len(rows)))
	for _, row := range rows {
		word(int64(len(row)))
		for _, x := range row {
			word(int64(x))
		}
	}
	word(int64(len(values)))
	for _, x := range values {
		word(x)
	}
	return h.Sum64()
}

// queryWire is the part of a POST /query response the checks read.
type queryWire struct {
	OK             bool     `json:"ok"`
	Vars           []string `json:"vars"`
	Rows           [][]int  `json:"rows"`
	PlanCacheHit   bool     `json:"plan_cache_hit"`
	DatasetVersion uint64   `json:"dataset_version"`
	Error          string   `json:"error"`
	Exec           *struct {
		IndexBuilds int64 `json:"index_builds"`
	} `json:"exec"`
	Aggregate *struct {
		GroupVars []string `json:"group_vars"`
		Groups    [][]int  `json:"groups"`
		Values    []int64  `json:"values"`
	} `json:"aggregate"`
}

// answerDigest is the digest of a successful /query response's answer.
func (w *queryWire) answerDigest() uint64 {
	if w.Aggregate != nil {
		return digest(w.Aggregate.GroupVars, w.Aggregate.Groups, w.Aggregate.Values)
	}
	return digest(w.Vars, w.Rows, nil)
}

// relationDigest and aggDigest fingerprint in-process answers the same
// way, so replay answers compare with wire answers.
func relationDigest(rel *join.Relation) uint64 { return digest(rel.Attrs, rel.Rows(), nil) }

func aggDigest(agg join.AggResult) uint64 { return digest(agg.GroupVars, agg.Groups, agg.Values) }

// resultDigest fingerprints the answer of a query.Planner result.
func resultDigest(res query.Result) uint64 {
	if res.Agg != nil {
		return aggDigest(*res.Agg)
	}
	return relationDigest(res.Rows)
}

// oracle evaluates the query mix from scratch over mirrored tuples with
// a left-deep hash join of its own: no plan, no maintained index, no
// code shared with the executor under test.
type oracle struct {
	queries []join.Query
	aggs    []*join.AggSpec
}

func newOracle() (*oracle, error) {
	o := &oracle{}
	for _, k := range queryMix {
		q, err := join.ParseQuery(k.Query)
		if err != nil {
			return nil, fmt.Errorf("mix %s: %w", k.Name, err)
		}
		o.queries = append(o.queries, q)
		var spec *join.AggSpec
		if k.Aggregate != "" {
			s, err := join.ParseAggregate(k.Aggregate)
			if err != nil {
				return nil, fmt.Errorf("mix %s: %w", k.Name, err)
			}
			spec = &s
		}
		o.aggs = append(o.aggs, spec)
	}
	return o, nil
}

// answer returns the digest of mix member k's answer over db.
func (o *oracle) answer(k int, db dbState) (uint64, error) {
	vars, rows, err := hashJoin(o.queries[k], db)
	if err != nil {
		return 0, err
	}
	spec := o.aggs[k]
	if spec == nil {
		cvars, crows := canonicalRows(vars, rows)
		return digest(cvars, crows, nil), nil
	}
	if spec.Kind != join.AggCount {
		return 0, fmt.Errorf("oracle folds count only, got %s", join.FormatAggregate(*spec))
	}
	if len(spec.GroupBy) == 0 {
		return digest(nil, [][]int{{}}, []int64{int64(len(rows))}), nil
	}
	gvars := append([]string(nil), spec.GroupBy...)
	sort.Strings(gvars)
	col := make([]int, len(gvars))
	for i, g := range gvars {
		col[i] = indexOf(vars, g)
	}
	counts := map[string]int64{}
	keys := map[string][]int{}
	for _, row := range rows {
		key := make([]int, len(col))
		for i, c := range col {
			key[i] = row[c]
		}
		ks := fmt.Sprint(key)
		if _, ok := keys[ks]; !ok {
			keys[ks] = key
		}
		counts[ks]++
	}
	groups := make([][]int, 0, len(keys))
	for _, key := range keys {
		groups = append(groups, key)
	}
	sortRows(groups)
	values := make([]int64, len(groups))
	for i, g := range groups {
		values[i] = counts[fmt.Sprint(g)]
	}
	return digest(gvars, groups, values), nil
}

// hashJoin joins q's binary atoms left to right over db, returning the
// query's variables in first-appearance order and every binding.
func hashJoin(q join.Query, db dbState) ([]string, [][]int, error) {
	var vars []string
	bindings := [][]int{{}}
	for _, a := range q.Atoms {
		rel, ok := db[a.Relation]
		if !ok || len(a.Vars) != 2 {
			return nil, nil, fmt.Errorf("oracle: atom %s/%d not a binary relation of the dataset", a.Relation, len(a.Vars))
		}
		// Column c of the atom is bound to binding slot pos[c], or is
		// new (pos[c] < 0) and appended.
		pos := [2]int{indexOf(vars, a.Vars[0]), indexOf(vars, a.Vars[1])}
		repeated := a.Vars[0] == a.Vars[1]
		index := map[tuple][]tuple{}
		for _, t := range rel.rows {
			if repeated && t[0] != t[1] {
				continue
			}
			key := tuple{-1, -1}
			for c := 0; c < 2; c++ {
				if pos[c] >= 0 {
					key[c] = t[c]
				}
			}
			index[key] = append(index[key], t)
		}
		for c := 0; c < 2; c++ {
			if pos[c] < 0 && !(c == 1 && repeated) {
				vars = append(vars, a.Vars[c])
			}
		}
		var next [][]int
		for _, b := range bindings {
			key := tuple{-1, -1}
			for c := 0; c < 2; c++ {
				if pos[c] >= 0 {
					key[c] = b[pos[c]]
				}
			}
			for _, t := range index[key] {
				ext := append(make([]int, 0, len(vars)), b...)
				for c := 0; c < 2; c++ {
					if pos[c] < 0 && !(c == 1 && repeated) {
						ext = append(ext, t[c])
					}
				}
				next = append(next, ext)
			}
		}
		bindings = next
	}
	return vars, bindings, nil
}

// canonicalRows reorders columns by sorted variable name and sorts the
// rows: the canonical form the server answers in.
func canonicalRows(vars []string, rows [][]int) ([]string, [][]int) {
	sorted := append([]string(nil), vars...)
	sort.Strings(sorted)
	perm := make([]int, len(sorted))
	for i, v := range sorted {
		perm[i] = indexOf(vars, v)
	}
	out := make([][]int, len(rows))
	for i, row := range rows {
		r := make([]int, len(perm))
		for j, p := range perm {
			r[j] = row[p]
		}
		out[i] = r
	}
	sortRows(out)
	return sorted, out
}

func sortRows(rows [][]int) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

func indexOf(xs []string, x string) int {
	for i, y := range xs {
		if y == x {
			return i
		}
	}
	return -1
}

// decompWire is the part of a POST /decompose response the checks read.
type decompWire struct {
	OK       bool             `json:"ok"`
	Width    int              `json:"width"`
	Tree     *treeWire        `json:"tree"`
	Error    string           `json:"error"`
	TimedOut bool             `json:"timed_out"`
	CacheHit bool             `json:"cache_hit"`
	Stats    *htd.SolverStats `json:"stats"`
}

type treeWire struct {
	Lambda   []string    `json:"lambda"`
	Bag      []string    `json:"bag"`
	Children []*treeWire `json:"children"`
}

// checkDecomposition rebuilds a returned tree from its wire names over
// the hypergraph text that was sent, validates it as a hypertree
// decomposition and checks its width against the reference width.
func checkDecomposition(text string, w *decompWire, refWidth int) error {
	if !w.OK || w.Tree == nil {
		return fmt.Errorf("no decomposition (error %q, timed out %v)", w.Error, w.TimedOut)
	}
	h, err := hypergraph.ParseString(text)
	if err != nil {
		return err
	}
	edgeID := make(map[string]int, h.NumEdges())
	for e := 0; e < h.NumEdges(); e++ {
		edgeID[h.EdgeName(e)] = e
	}
	var build func(t *treeWire) (*decomp.Node, error)
	build = func(t *treeWire) (*decomp.Node, error) {
		lambda := make([]int, len(t.Lambda))
		for i, name := range t.Lambda {
			e, ok := edgeID[name]
			if !ok {
				return nil, fmt.Errorf("unknown edge %q in λ", name)
			}
			lambda[i] = e
		}
		bag := bitset.New(h.NumVertices())
		for _, name := range t.Bag {
			v, ok := h.VertexID(name)
			if !ok {
				return nil, fmt.Errorf("unknown vertex %q in bag", name)
			}
			bag.Set(v)
		}
		n := decomp.NewNode(lambda, bag)
		for _, c := range t.Children {
			child, err := build(c)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, child)
		}
		return n, nil
	}
	root, err := build(w.Tree)
	if err != nil {
		return err
	}
	d := &decomp.Decomp{H: h, Root: root}
	if err := htd.Validate(d); err != nil {
		return fmt.Errorf("invalid decomposition: %w", err)
	}
	if d.Width() != w.Width || w.Width != refWidth {
		return fmt.Errorf("width %d (tree %d), reference %d", w.Width, d.Width(), refWidth)
	}
	return nil
}

func parseDecompWire(body []byte) (*decompWire, error) {
	var w decompWire
	if err := json.Unmarshal(body, &w); err != nil {
		return nil, err
	}
	return &w, nil
}
