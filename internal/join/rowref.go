package join

import (
	"context"
	"fmt"

	"repro/internal/decomp"
)

// The pre-columnar reference executor: relation storage as one heap
// []int per tuple and string-keyed hash maps — exactly the layout this
// package used before the arena refactor. It exists for measurement
// and differential testing, not for serving: benchtab's mem experiment
// runs it beside the columnar executor to (a) prove the columnar rows
// are byte-identical to the old layout's, order included, and (b)
// quantify the allocation diet against a live baseline rather than a
// number frozen in a JSON file. It is deliberately serial and
// deliberately keeps the old allocation behaviour (per-tuple slices,
// per-key strings, the O(attrs²) attribute scan); do not "improve" it.

// RowRelation is a relation in the pre-columnar layout.
type RowRelation struct {
	Attrs  []string
	Tuples [][]int
}

// RowDatabase is the [][]int image of a Database, built once — outside
// any measurement window — with NewRowDatabase, mirroring how the old
// layout held base data resident.
type RowDatabase map[string]*RowRelation

// NewRowDatabase materialises db in the row layout.
func NewRowDatabase(db Database) RowDatabase {
	out := make(RowDatabase, len(db))
	for name, rel := range db {
		out[name] = &RowRelation{
			Attrs:  append([]string(nil), rel.Attrs...),
			Tuples: rel.Rows(),
		}
	}
	return out
}

// appendTupleKey is the row-layout key encoder: the same little-endian
// encoding as appendRowKey, over a materialised tuple.
func appendTupleKey(dst []byte, t []int, cols []int) []byte {
	for _, c := range cols {
		dst = appendKeyVal(dst, uint64(t[c]))
	}
	return dst
}

// attrIndex is the pre-columnar position lookup, O(attrs²) scan and
// all — part of the baseline being measured.
func (r *RowRelation) attrIndex(attrs []string) ([]int, error) {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		pos := -1
		for j, b := range r.Attrs {
			if a == b {
				pos = j
				break
			}
		}
		if pos < 0 {
			return nil, fmt.Errorf("join: attribute %q not in relation %v", a, r.Attrs)
		}
		idx[i] = pos
	}
	return idx, nil
}

func rowSharedAttrs(r, s *RowRelation) []string {
	var out []string
	for _, a := range r.Attrs {
		for _, b := range s.Attrs {
			if a == b {
				out = append(out, a)
				break
			}
		}
	}
	return out
}

func (r *RowRelation) project(attrs []string) (*RowRelation, error) {
	idx, err := r.attrIndex(attrs)
	if err != nil {
		return nil, err
	}
	out := &RowRelation{Attrs: append([]string(nil), attrs...)}
	seen := make(map[string]struct{}, len(r.Tuples))
	buf := make([]byte, 0, 8*len(idx))
	for _, t := range r.Tuples {
		row := make([]int, len(idx))
		for i, c := range idx {
			row[i] = t[c]
		}
		buf = appendTupleKey(buf[:0], row, identCols(len(row)))
		if _, dup := seen[string(buf)]; dup {
			continue
		}
		seen[string(buf)] = struct{}{}
		out.Tuples = append(out.Tuples, row)
	}
	return out, nil
}

func (r *RowRelation) semijoin(s *RowRelation) (*RowRelation, error) {
	shared := rowSharedAttrs(r, s)
	out := &RowRelation{Attrs: r.Attrs}
	if len(shared) == 0 {
		if len(s.Tuples) > 0 {
			out.Tuples = append(out.Tuples, r.Tuples...)
		}
		return out, nil
	}
	rIdx, err := r.attrIndex(shared)
	if err != nil {
		return nil, err
	}
	sIdx, err := s.attrIndex(shared)
	if err != nil {
		return nil, err
	}
	keys := make(map[string]struct{}, len(s.Tuples))
	buf := make([]byte, 0, 8*len(shared))
	for _, t := range s.Tuples {
		buf = appendTupleKey(buf[:0], t, sIdx)
		keys[string(buf)] = struct{}{}
	}
	for _, t := range r.Tuples {
		buf = appendTupleKey(buf[:0], t, rIdx)
		if _, ok := keys[string(buf)]; ok {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out, nil
}

func (r *RowRelation) join(s *RowRelation) (*RowRelation, error) {
	shared := rowSharedAttrs(r, s)
	rIdx, err := r.attrIndex(shared)
	if err != nil {
		return nil, err
	}
	sIdx, err := s.attrIndex(shared)
	if err != nil {
		return nil, err
	}
	// The same schema construction as joinSchema, on row relations.
	outAttrs := append([]string(nil), r.Attrs...)
	var sExtra []int
	for j, a := range s.Attrs {
		isShared := false
		for _, b := range shared {
			if a == b {
				isShared = true
				break
			}
		}
		if !isShared {
			outAttrs = append(outAttrs, a)
			sExtra = append(sExtra, j)
		}
	}
	out := &RowRelation{Attrs: outAttrs}
	buckets := make(map[string][][]int, len(s.Tuples))
	buf := make([]byte, 0, 8*len(shared))
	for _, t := range s.Tuples {
		buf = appendTupleKey(buf[:0], t, sIdx)
		buckets[string(buf)] = append(buckets[string(buf)], t)
	}
	for _, t := range r.Tuples {
		buf = appendTupleKey(buf[:0], t, rIdx)
		for _, u := range buckets[string(buf)] {
			row := make([]int, 0, len(outAttrs))
			row = append(row, t...)
			for _, c := range sExtra {
				row = append(row, u[c])
			}
			out.Tuples = append(out.Tuples, row)
		}
	}
	return out, nil
}

func (r *RowRelation) dedup() *RowRelation {
	cols := identCols(len(r.Attrs))
	seen := make(map[string]struct{}, len(r.Tuples))
	buf := make([]byte, 0, 8*len(cols))
	out := &RowRelation{Attrs: r.Attrs}
	for _, t := range r.Tuples {
		buf = appendTupleKey(buf[:0], t, cols)
		if _, dup := seen[string(buf)]; dup {
			continue
		}
		seen[string(buf)] = struct{}{}
		out.Tuples = append(out.Tuples, t)
	}
	return out
}

type rowBagNode struct {
	rel      *RowRelation
	children []*rowBagNode
}

// EvaluateRowRef answers q over the row-layout database with the same
// plan shaping as the columnar executor — assignAtomCovers host
// selection, then the serial three-pass Yannakakis — so its rows are
// the byte-identity reference (order included) for the executor at
// every parallelism. ctx and maxRows are checked between relational
// operations only.
func EvaluateRowRef(ctx context.Context, q Query, rdb RowDatabase, d *decomp.Decomp, maxRows int) (*RowRelation, error) {
	check := func(r *RowRelation) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if maxRows > 0 && len(r.Tuples) > maxRows {
			return fmt.Errorf("%w: intermediate result has %d rows, budget is %d",
				ErrRowBudget, len(r.Tuples), maxRows)
		}
		return nil
	}
	atomRel := func(a Atom) (*RowRelation, error) {
		base, ok := rdb[a.Relation]
		if !ok {
			return nil, fmt.Errorf("join: relation %q not in database", a.Relation)
		}
		if len(base.Attrs) != len(a.Vars) {
			return nil, fmt.Errorf("join: atom %s has %d vars but relation has %d columns",
				a.Relation, len(a.Vars), len(base.Attrs))
		}
		return &RowRelation{Attrs: append([]string(nil), a.Vars...), Tuples: base.Tuples}, nil
	}

	coverOf, err := assignAtomCovers(q, d)
	if err != nil {
		return nil, err
	}
	var build func(n *decomp.Node) (*rowBagNode, error)
	build = func(n *decomp.Node) (*rowBagNode, error) {
		var acc *RowRelation
		for _, eid := range n.Lambda {
			r, err := atomRel(q.Atoms[eid])
			if err != nil {
				return nil, err
			}
			if acc == nil {
				acc = r
			} else {
				acc, err = acc.join(r)
				if err != nil {
					return nil, err
				}
			}
			if err := check(acc); err != nil {
				return nil, err
			}
		}
		if acc == nil {
			return nil, fmt.Errorf("join: node with empty λ-label")
		}
		var bagAttrs []string
		n.Bag.ForEach(func(v int) { bagAttrs = append(bagAttrs, d.H.VertexName(v)) })
		proj, err := acc.project(bagAttrs)
		if err != nil {
			return nil, err
		}
		for _, eid := range coverOf[n] {
			r, err := atomRel(q.Atoms[eid])
			if err != nil {
				return nil, err
			}
			proj, err = proj.semijoin(r)
			if err != nil {
				return nil, err
			}
		}
		if err := check(proj); err != nil {
			return nil, err
		}
		bn := &rowBagNode{rel: proj}
		for _, c := range n.Children {
			cb, err := build(c)
			if err != nil {
				return nil, err
			}
			bn.children = append(bn.children, cb)
		}
		return bn, nil
	}
	root, err := build(d.Root)
	if err != nil {
		return nil, err
	}

	var up func(n *rowBagNode) error
	up = func(n *rowBagNode) error {
		for _, c := range n.children {
			if err := up(c); err != nil {
				return err
			}
			red, err := n.rel.semijoin(c.rel)
			if err != nil {
				return err
			}
			n.rel = red
		}
		return check(n.rel)
	}
	if err := up(root); err != nil {
		return nil, err
	}
	var down func(n *rowBagNode) error
	down = func(n *rowBagNode) error {
		for _, c := range n.children {
			red, err := c.rel.semijoin(n.rel)
			if err != nil {
				return err
			}
			c.rel = red
			if err := check(c.rel); err != nil {
				return err
			}
			if err := down(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := down(root); err != nil {
		return nil, err
	}
	var collect func(n *rowBagNode) (*RowRelation, error)
	collect = func(n *rowBagNode) (*RowRelation, error) {
		acc := n.rel
		for _, c := range n.children {
			sub, err := collect(c)
			if err != nil {
				return nil, err
			}
			acc, err = acc.join(sub)
			if err != nil {
				return nil, err
			}
			if err := check(acc); err != nil {
				return nil, err
			}
		}
		return acc, nil
	}
	res, err := collect(root)
	if err != nil {
		return nil, err
	}
	return res.dedup(), nil
}
