package main

import (
	"fmt"
	"math/rand"
	"strings"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/graphdb"
	wl "ecrpq/internal/workload"
)

// dbSpec is one row of the static database table: workload.RandomDB over
// {a,b} with E = 3V. The structure seed is part of the table, not of
// --seed: sweep and product-search cost varies by more than 2× between
// random graphs of one size, which would bury a 10 % regression bound, so
// --seed drives the request stream (order, renamings, shuffles, Zipf
// draws) and the graphs stay put.
type dbSpec struct {
	name string
	v    int
	seed int64
}

// builtDB is a generated database in the three forms the benchmark needs:
// the registration text, its edge lines (for shuffled re-registration) and
// the parsed graph the oracle and the traced run evaluate on.
type builtDB struct {
	dbSpec
	header string   // alphabet line + one `vertex` line per vertex
	edges  []string // "u a v" lines
	text   string   // header + edges, the registration body
	db     *graphdb.DB
}

// buildDB generates the database of a table row. Every vertex is declared
// up front in id order, so the server's vertex ids equal the local ones
// whatever order the edge lines arrive in; that keeps witnesses and
// integrity digests comparable across shuffled re-registrations.
func buildDB(s dbSpec) (*builtDB, error) {
	a := alphabet.Lower(2)
	g := wl.RandomDB(rand.New(rand.NewSource(s.seed)), a, s.v, 3*s.v)
	var hdr strings.Builder
	hdr.WriteString(alphabetLine)
	for v := 0; v < g.NumVertices(); v++ {
		fmt.Fprintf(&hdr, "vertex v%d\n", v)
	}
	b := &builtDB{dbSpec: s, header: hdr.String()}
	for u := 0; u < g.NumVertices(); u++ {
		for _, e := range g.Out(u) {
			b.edges = append(b.edges, fmt.Sprintf("v%d %s v%d\n", u, a.Name(e.Label), e.To))
		}
	}
	b.text = b.header + strings.Join(b.edges, "")
	db, err := graphdb.ParseString(b.text)
	if err != nil {
		return nil, fmt.Errorf("database %s: %w", s.name, err)
	}
	b.db = db
	return b, nil
}

// shuffledText is the registration body with the edge lines permuted: the
// same graph, so every expected answer and the content digest stay valid.
func (b *builtDB) shuffledText(rng *rand.Rand) string {
	perm := rng.Perm(len(b.edges))
	var sb strings.Builder
	sb.Grow(len(b.text))
	sb.WriteString(b.header)
	for _, i := range perm {
		sb.WriteString(b.edges[i])
	}
	return sb.String()
}

// pair is one (template, database) row of a workload's static table plus
// what the oracle expects of it.
type pair struct {
	t        *template
	db       *builtDB
	strategy string // "", "reduction" or "generic": the request's strategy field
	variant  string // fixed suffix making this row its own cache key
	sat      bool
	answers  map[string]bool // free-variable templates: expected rows, joined by "\x00"

	// Request text and body under the fixed variant suffix, filled in by
	// workload.finish for classes that do not rename per op.
	text string
	body []byte
}

func (p *pair) String() string { return p.t.name + p.variant + "@" + p.db.name }

// Relation and language variants the tables below draw from.
var (
	sweepRels = []string{"eqlen", "eq", "hamming<=1"}

	// thinRegexes are the edge languages of the hot-cache thin class:
	// 24 CRPQ chains of 2…8 edges are cut from this cycle.
	thinRegexes = []string{"a*", "b*", "(a|b)*a", "a(a|b)*", "(ab)*", "b(a|b)*b", "(a|b)*", "a*b*"}
)

// thinTemplates are the 24 hot-cache thin-class templates: 21 CRPQ chains
// (k = 2…8 at three offsets into thinRegexes) and the 3-clique in three
// renamings, all with KB-sized materialisations.
func thinTemplates() []*template {
	var ts []*template
	for off := 0; off < 3; off++ {
		for k := 2; k <= 8; k++ {
			res := make([]string, k)
			for i := range res {
				res[i] = thinRegexes[(off*3+i)%len(thinRegexes)]
			}
			ts = append(ts, crpqPath(res...))
		}
	}
	for i := 0; i < 3; i++ {
		ts = append(ts, clique(3))
	}
	return ts
}

// Generic-search templates: one component of 2–3 tracks whose language
// constraints rule out the trivial x = y, ε witness, so the product search
// has to work. "unsat" rows have pairwise-disjoint (or parity-disjoint)
// languages under eq/eqlen/edit — regex-intersection non-emptiness, the
// Lemma 5.1 shape — and are exhaustive.
var (
	gFanEq2Unsat    = fan(2, "eq", "a(a|b)*", "b(a|b)*")
	gFanEq3Unsat    = fan(3, "eq", "a(a|b)*", "b(a|b)*", "(a|b)*")
	gFanEq3Sat      = fan(3, "eq", "a(a|b)*", "(a|b)*b", "(a|b)*")
	gFanEqlen2Unsat = fan(2, "eqlen", "(aa)*", "a(aa)*")
	gFanEqlen3Unsat = fan(3, "eqlen", "(aa)*", "a(aa)*", "b*")
	gHamming2Sat    = fan(2, "hamming<=1", "a(a|b)*", "b(a|b)*")
	gEdit1Unsat     = fan(2, "edit<=1", "aa(a|b)*", "bb(a|b)*")
	gEdit2Sat       = fan(2, "edit<=2", "aa(a|b)*", "b(a|b)*")
	gPrefix3Sat     = binChain(3, "prefix", "a(a|b)*", "", "")
	gHamming3Sat    = binChain(3, "hamming<=1", "aa(a|b)*", "", "bb(a|b)*")
)
