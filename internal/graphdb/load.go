package graphdb

import (
	"fmt"
	"math"

	"ecrpq/internal/alphabet"
)

// Load returns the database that AddVertex over names in order ("" is an
// anonymous vertex) followed by AddEdge over the (source, label, target)
// triples in order would have built — same ids, same Out and In order, a
// repeated edge dropped keeping its first mention — in time linear in its
// arguments. It takes ownership of names and only reads triples, whose
// length is a multiple of three.
func Load(a *alphabet.Alphabet, names []string, triples []int32) (*DB, error) {
	d := &DB{alpha: a, names: names, index: make(map[string]int, len(names))}
	for v, name := range names {
		if name == "" {
			continue
		}
		if _, dup := d.index[name]; dup {
			return nil, fmt.Errorf("graphdb: duplicate vertex %q", name)
		}
		d.index[name] = v
	}
	return d.withEdges(triples)
}

// withEdges gives a database that has its vertices and no edges yet the
// adjacency of the triples. The lists of out (and of in) are sub-slices of one
// array, capacity clipped, so a later AddEdge appends to a copy of the list
// instead of overwriting the next vertex's.
func (d *DB) withEdges(triples []int32) (*DB, error) {
	n, nsym := len(d.names), d.alpha.Size()
	if n > math.MaxInt32 || len(triples)%3 != 0 {
		return nil, fmt.Errorf("graphdb: cannot load %d vertices and %d triple values", n, len(triples))
	}
	for i := 0; i < len(triples); i += 3 {
		u, l, v := triples[i], triples[i+1], triples[i+2]
		if uint(u) >= uint(n) || uint(v) >= uint(n) {
			return nil, fmt.Errorf("graphdb: edge endpoints (%d,%d) out of range", u, v)
		}
		if uint(l) >= uint(nsym) {
			return nil, fmt.Errorf("graphdb: label %d not in alphabet", l)
		}
	}
	stamp := make([]int32, n*nsym)
	d.out, d.edges = adjacency(triples, 0, n, nsym, stamp)
	clear(stamp)
	d.in, _ = adjacency(triples, 2, n, nsym, stamp)
	return d, nil
}

// adjacency groups validated triples by column key (0: source, the out lists;
// 2: target, the in lists) with a stable counting sort, so a list keeps the
// triples' order, then drops repeated edges in one walk: stamp, n*nsym zeros,
// holds per (other endpoint, label) the last list that had it. It also
// returns how many edges it kept.
func adjacency(triples []int32, key, n, nsym int, stamp []int32) ([][]Edge, int) {
	pos := make([]int32, n+2) // list k is counted in pos[k+2], filled through pos[k+1], and ends up edges[pos[k]:pos[k+1]]
	for i := key; i < len(triples); i += 3 {
		pos[int(triples[i])+2]++
	}
	for k := 2; k < len(pos); k++ {
		pos[k] += pos[k-1]
	}
	edges := make([]Edge, len(triples)/3)
	for i := 0; i < len(triples); i += 3 {
		k := int(triples[i+key]) + 1
		edges[pos[k]] = Edge{alphabet.Symbol(triples[i+1]), int(triples[i+2-key])}
		pos[k]++
	}
	lists := make([][]Edge, n)
	w := 0
	for k := range lists {
		lo := w
		for _, e := range edges[pos[k]:pos[k+1]] {
			if s := &stamp[e.To*nsym+int(e.Label)]; *s != int32(k)+1 {
				*s = int32(k) + 1
				edges[w] = e
				w++
			}
		}
		lists[k] = edges[lo:w:w]
	}
	return lists, w
}
