package main

import (
	"context"
	"fmt"
	"strings"

	"ecrpq/internal/core"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/twolevel"
)

// The oracle is the library API called directly, once per (template,
// database) row, before any clock starts: what it computes is compared
// with every response that row produces over HTTP. Renaming variables does
// not change satisfiability or answers, so one expectation covers every
// renaming of a row.

const rowSep = "\x00"

// fillOracle computes the expectation of every pair of the workload.
func fillOracle(w *workload) error {
	for ci := range w.classes {
		c := &w.classes[ci]
		for _, p := range c.pairs {
			q, err := query.ParseString(p.t.render(""))
			if err != nil {
				return fmt.Errorf("oracle: %s: %w", p, err)
			}
			// The pinned strategy when the row has one; otherwise the
			// sweep for components of at most two tracks and the product
			// search beyond, where a V^t sweep is out of reach.
			opts := core.Options{Parallelism: -1}
			switch {
			case p.strategy == "generic", p.strategy == "" && twolevel.QueryMeasures(q).CCVertex > 2:
				opts.Strategy = core.Generic
			default:
				opts.Strategy = core.Reduction
			}
			if len(q.Free) == 0 {
				// A nil materialisation takes the first-witness path, which
				// answers the satisfiable sweep-bound rows without the sweep.
				pr, err := core.Prepare(q, opts)
				if err != nil {
					return fmt.Errorf("oracle: %s: %w", p, err)
				}
				res, err := pr.EvaluateContext(context.Background(), p.db.db, nil)
				if err != nil {
					return fmt.Errorf("oracle: %s: %w", p, err)
				}
				p.sat = res.Sat
				continue
			}
			rows, err := core.Answers(p.db.db, q, opts)
			if err != nil {
				return fmt.Errorf("oracle: %s: %w", p, err)
			}
			p.sat = len(rows) > 0
			p.answers = make(map[string]bool, len(rows))
			for _, row := range rows {
				names := make([]string, len(row))
				for i, v := range row {
					names[i] = p.db.db.VertexName(v)
				}
				p.answers[strings.Join(names, rowSep)] = true
			}
		}
	}
	return nil
}

// sameRows reports whether the response rows are exactly the expected
// answer set (compared as sets; a duplicate row is a mismatch).
func sameRows(got [][]string, want map[string]bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answer rows, want %d", len(got), len(want))
	}
	return subsetRows(got, want, map[string]bool{})
}

// subsetRows checks that rows are distinct (also from those in seen) and
// all expected; it adds them to seen.
func subsetRows(got [][]string, want, seen map[string]bool) error {
	for _, row := range got {
		k := strings.Join(row, rowSep)
		if !want[k] {
			return fmt.Errorf("answer row %v is not in the expected set", row)
		}
		if seen[k] {
			return fmt.Errorf("answer row %v returned twice", row)
		}
		seen[k] = true
	}
	return nil
}

// witness is a satisfiable Boolean response kept for the post-run check.
type witness struct {
	db    *builtDB
	text  string
	nodes map[string]string
	paths map[string]string
}

// verify rebuilds the witness from the response's vertex names and path
// strings and holds it to core.VerifyWitness on the local graph.
func (wt *witness) verify() error {
	q, err := query.ParseString(wt.text)
	if err != nil {
		return err
	}
	db := wt.db.db
	res := &core.Result{Sat: true, Nodes: map[string]int{}, Paths: map[string]graphdb.Path{}}
	for v, name := range wt.nodes {
		id, ok := db.Lookup(name)
		if !ok {
			return fmt.Errorf("witness vertex %q is not in %s", name, wt.db.name)
		}
		res.Nodes[v] = id
	}
	for pv, s := range wt.paths {
		p, err := parsePath(db, s)
		if err != nil {
			return fmt.Errorf("witness path %s: %w", pv, err)
		}
		res.Paths[pv] = p
	}
	return core.VerifyWitness(db, q, res)
}

// parsePath inverts graphdb.Path.Format: "v0 -a-> v1 -b-> v2".
func parsePath(db *graphdb.DB, s string) (graphdb.Path, error) {
	f := strings.Fields(s)
	if len(f) == 0 || len(f)%2 == 0 {
		return graphdb.Path{}, fmt.Errorf("malformed path %q", s)
	}
	start, ok := db.Lookup(f[0])
	if !ok {
		return graphdb.Path{}, fmt.Errorf("unknown vertex %q", f[0])
	}
	p := graphdb.Path{Start: start}
	for i := 1; i < len(f); i += 2 {
		lab := strings.TrimSuffix(strings.TrimPrefix(f[i], "-"), "->")
		sym, ok := db.Alphabet().Lookup(lab)
		if !ok {
			return graphdb.Path{}, fmt.Errorf("unknown label %q", f[i])
		}
		to, ok := db.Lookup(f[i+1])
		if !ok {
			return graphdb.Path{}, fmt.Errorf("unknown vertex %q", f[i+1])
		}
		p.Edges = append(p.Edges, graphdb.Edge{Label: sym, To: to})
	}
	return p, nil
}
