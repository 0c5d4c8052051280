package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/hyperbench"
	"repro/internal/hypergraph"
)

// Everything the server receives is generated here from the workload
// seed alone: the same seed yields byte-identical request bodies, a
// different seed different ones (TestInputsSeeded checks both).

// Decompose-cold input parameters.
const (
	decompWidthCeiling = 6     // "k" of every optimal-mode request
	decompTimeoutMS    = 20000 // "timeout_ms" of every request, and the server's -timeout
	decompMaxEdges     = 70    // admit |E| <= this
	decompMaxKnownHW   = 3     // admit known width <= this
	decompMaxSearch    = 160000
)

// decompInstance is one admitted HyperBench-sim instance, renamed by the
// seed, with its pre-encoded request body.
type decompInstance struct {
	Name    string
	Edges   int
	KnownHW int
	Text    string // the hypergraph as sent (HyperBench syntax)
	Body    []byte // the POST /decompose body
}

// admitDecomp is the instance filter of decompose-cold. It reads only
// instance properties: the width must be known by construction and at
// most decompMaxKnownHW, |E| at most decompMaxEdges, and |E|^hw (the
// size of the candidate space a width-hw search walks) at most
// decompMaxSearch. Known-width families are generated without
// randomness, so the admitted set is the same for every seed.
func admitDecomp(in hyperbench.Instance) bool {
	if in.KnownHW < 1 || in.KnownHW > decompMaxKnownHW || in.Edges() > decompMaxEdges {
		return false
	}
	return math.Pow(float64(in.Edges()), float64(in.KnownHW)) <= decompMaxSearch
}

// nontrivialSearch is the |E|^hw at which an instance's search space
// counts as non-trivial for the latency p50 of decompose-cold.
const nontrivialSearch = 1000

func (in decompInstance) nontrivial() bool {
	return math.Pow(float64(in.Edges), float64(in.KnownHW)) >= nontrivialSearch
}

// decompInputs returns the admitted instances of the scale-1 suite in
// suite order, each with seeded vertex and edge names. Renaming keeps
// the order in which vertices first appear, so the server assigns the
// same internal ids (and does the same search) whatever the seed. The
// order stays fixed because it decides which instances the two clients
// solve side by side: a small instance that shares the CPUs with a
// large solve waits for scheduler time slices, so a seeded order would
// move the median with the seed rather than with the code.
func decompInputs(seed int64) []decompInstance {
	r := rand.New(rand.NewSource(seed))
	var out []decompInstance
	for _, in := range hyperbench.Suite(hyperbench.Config{Scale: 1, Seed: seed}) {
		if !admitDecomp(in) {
			continue
		}
		text := renameHypergraph(in.H, r)
		body, _ := json.Marshal(map[string]any{
			"hypergraph": text,
			"mode":       "optimal",
			"k":          decompWidthCeiling,
			"timeout_ms": decompTimeoutMS,
		})
		out = append(out, decompInstance{
			Name: in.Name, Edges: in.Edges(), KnownHW: in.KnownHW, Text: text, Body: body,
		})
	}
	return out
}

// renameHypergraph renders h in HyperBench syntax with every vertex and
// edge renamed through a seeded tag, edge order and vertex order kept.
func renameHypergraph(h *hypergraph.Hypergraph, r *rand.Rand) string {
	tag := strconv.FormatInt(r.Int63n(1<<30), 36)
	var b strings.Builder
	for e := 0; e < h.NumEdges(); e++ {
		if e > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, "e%s_%d(", tag, e)
		for j, v := range h.EdgeVertices(e) {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "v%s_%d", tag, v)
		}
		b.WriteByte(')')
	}
	b.WriteString(".")
	return b.String()
}

// Query-workload input parameters.
const (
	relTuples      = 2000 // tuples per uploaded relation (before dedup)
	relDomain      = 2000 // values are drawn from [0, relDomain)
	queryTimeoutMS = 5000 // "timeout_ms" of every query, and the server's -timeout
	mutateEvery    = 5    // in query-mixed-rw, one request in mutateEvery is a write
	mutateRows     = 50   // tuples inserted and tuples deleted per write batch
)

// tuple is one row of a binary relation.
type tuple [2]int

// relState is a set of tuples in insertion order, the mirror of one
// server relation.
type relState struct {
	rows []tuple
	pos  map[tuple]int
}

func newRelState() *relState { return &relState{pos: make(map[tuple]int)} }

func (s *relState) insert(t tuple) bool {
	if _, ok := s.pos[t]; ok {
		return false
	}
	s.pos[t] = len(s.rows)
	s.rows = append(s.rows, t)
	return true
}

func (s *relState) delete(t tuple) bool {
	i, ok := s.pos[t]
	if !ok {
		return false
	}
	last := s.rows[len(s.rows)-1]
	s.rows[i] = last
	s.pos[last] = i
	s.rows = s.rows[:len(s.rows)-1]
	delete(s.pos, t)
	return true
}

func (s *relState) clone() *relState {
	c := &relState{rows: append([]tuple(nil), s.rows...), pos: make(map[tuple]int, len(s.pos))}
	for t, i := range s.pos {
		c.pos[t] = i
	}
	return c
}

// dbState is the mirror of one dataset: relation name -> tuples.
type dbState map[string]*relState

func (db dbState) clone() dbState {
	c := make(dbState, len(db))
	for name, rel := range db {
		c[name] = rel.clone()
	}
	return c
}

// relNames returns db's relation names in sorted order.
func (db dbState) relNames() []string {
	names := make([]string, 0, len(db))
	for name := range db {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// relText renders db as the rel blocks PUT /data/{name} takes.
func (db dbState) relText() string {
	var b strings.Builder
	for _, name := range db.relNames() {
		fmt.Fprintf(&b, "rel %s(c0,c1)\n", name)
		for _, t := range db[name].rows {
			b.WriteString(strconv.Itoa(t[0]))
			b.WriteByte(' ')
			b.WriteString(strconv.Itoa(t[1]))
			b.WriteByte('\n')
		}
		b.WriteString("end\n")
	}
	return b.String()
}

// datasetSpec is one named dataset the query workloads upload.
type datasetSpec struct {
	Name string
	Rels []string
}

var datasetSpecs = []datasetSpec{
	{Name: "graph", Rels: []string{"R", "S", "T"}},
	{Name: "chain", Rels: []string{"A", "B", "C", "D"}},
}

// queryKind is one member of the query mix. Weight is its share of
// the reads: every block of sumWeights reads holds exactly Weight reads
// of it, in seeded order.
type queryKind struct {
	Name      string
	Dataset   string
	Query     string
	Aggregate string
	Weight    int
}

// queryMix is the four-member mix of both query workloads. The weights
// put the median read inside the row query's latency band and the p90
// inside the aggregates' band, not on the edge between two bands, where
// a median swings with the mix instead of with the code.
var queryMix = []queryKind{
	// Cyclic, hw 2, few answer rows: the executor's semijoin passes.
	{Name: "triangle", Dataset: "graph", Query: "R(x,y), S(y,z), T(z,x).", Weight: 2},
	// Acyclic with thousands of answer rows: canonicalisation and the
	// JSON encode carry weight.
	{Name: "rows", Dataset: "graph", Query: "R(x,y), S(y,z).", Weight: 3},
	// Chain count aggregate: pushed-down fold over a 4-atom path.
	{Name: "chain-count", Dataset: "chain", Query: "A(a,b), B(b,c), C(c,d), D(d,e).", Aggregate: "count", Weight: 1},
	// Star GROUP BY: per-key partial aggregates.
	{Name: "star-group", Dataset: "chain", Query: "A(x,a), B(x,b), C(x,c).", Aggregate: "group x: count", Weight: 1},
}

// queryBody is the pre-encoded POST /query body of mix member k.
func queryBody(k queryKind) []byte {
	m := map[string]any{"query": k.Query, "dataset": k.Dataset, "timeout_ms": queryTimeoutMS}
	if k.Aggregate != "" {
		m["aggregate"] = k.Aggregate
	}
	b, _ := json.Marshal(m)
	return b
}

// mutation is one pre-generated write batch against one dataset.
type mutation struct {
	Dataset string
	Rel     string
	Insert  []tuple
	Delete  []tuple
	Body    []byte // NDJSON: the delete line, then the insert line
}

// op is one scheduled request of a query workload: a read of mix
// member Query, or (Query < 0) the write Mut.
type op struct {
	Query int
	Mut   *mutation
}

// queryInputs is the whole generated input of a query workload.
type queryInputs struct {
	Initial map[string]dbState // dataset -> initial tuples
	Uploads map[string][]byte  // dataset -> PUT /data body
	Bodies  [][]byte           // mix member -> POST /query body
	Ops     []op               // the request sequence, in due order
}

// genDataset draws relTuples random tuples per relation (deduplicated).
func genDataset(r *rand.Rand, spec datasetSpec) dbState {
	db := dbState{}
	for _, name := range spec.Rels {
		rel := newRelState()
		for i := 0; i < relTuples; i++ {
			rel.insert(tuple{r.Intn(relDomain), r.Intn(relDomain)})
		}
		db[name] = rel
	}
	return db
}

// genQueryInputs generates the datasets and a request sequence of n
// operations. With writes, every mutateEvery-th op is a write batch that
// inserts mutateRows fresh random tuples into one relation and deletes
// mutateRows tuples live at that point of the sequence (projected in
// send order; the check replays the commit order the server reports).
func genQueryInputs(seed int64, n int, writes bool) *queryInputs {
	r := rand.New(rand.NewSource(seed))
	in := &queryInputs{Initial: map[string]dbState{}, Uploads: map[string][]byte{}}
	for _, spec := range datasetSpecs {
		db := genDataset(r, spec)
		in.Initial[spec.Name] = db
		in.Uploads[spec.Name] = []byte(db.relText())
	}
	for _, k := range queryMix {
		in.Bodies = append(in.Bodies, queryBody(k))
	}
	projected := map[string]dbState{}
	for name, db := range in.Initial {
		projected[name] = db.clone()
	}
	in.Ops = make([]op, n)
	var block []int
	for i := range in.Ops {
		if writes && i%mutateEvery == mutateEvery-1 {
			in.Ops[i] = op{Query: -1, Mut: genMutation(r, projected)}
			continue
		}
		if len(block) == 0 {
			for k, mk := range queryMix {
				for w := 0; w < mk.Weight; w++ {
					block = append(block, k)
				}
			}
			r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		in.Ops[i] = op{Query: block[0]}
		block = block[1:]
	}
	return in
}

func genMutation(r *rand.Rand, projected map[string]dbState) *mutation {
	spec := datasetSpecs[r.Intn(len(datasetSpecs))]
	relName := spec.Rels[r.Intn(len(spec.Rels))]
	rel := projected[spec.Name][relName]
	m := &mutation{Dataset: spec.Name, Rel: relName}
	for i := 0; i < mutateRows && len(rel.rows) > 0; i++ {
		t := rel.rows[r.Intn(len(rel.rows))]
		rel.delete(t)
		m.Delete = append(m.Delete, t)
	}
	for i := 0; i < mutateRows; i++ {
		t := tuple{r.Intn(relDomain), r.Intn(relDomain)}
		rel.insert(t)
		m.Insert = append(m.Insert, t)
	}
	line := func(opName string, rows []tuple) []byte {
		wire := make([][]int, len(rows))
		for i, t := range rows {
			wire[i] = []int{t[0], t[1]}
		}
		b, _ := json.Marshal(map[string]any{"op": opName, "rel": relName, "rows": wire})
		return append(b, '\n')
	}
	m.Body = append(line("delete", m.Delete), line("insert", m.Insert)...)
	return m
}
