package graphdb

import (
	"ecrpq/internal/alphabet"
	"ecrpq/internal/invariant"
)

// CSR is a database's forward adjacency in compressed sparse rows,
// partitioned by label: the successors of a vertex along the edges of one
// label are one sub-slice of a single array. A CSR is immutable; DB.Forward
// hands out the current one.
type CSR struct {
	nsym    int
	offsets []int32 // list v*nsym+label is targets[offsets[i]:offsets[i+1]]
	targets []int32
}

// Succ returns the successors of v along label-edges, in the order the
// edges were added. The slice must not be modified.
//
//ecrpq:bounds-checked
func (c *CSR) Succ(v int, label alphabet.Symbol) []int32 {
	i := v*c.nsym + int(label)
	invariant.Assert(uint(label) < uint(c.nsym) && uint(i) < uint(len(c.offsets)-1),
		"graphdb: successor access outside the forward layout")
	return c.targets[c.offsets[i]:c.offsets[i+1]]
}

// Forward returns the database's forward layout. It is built on first use —
// by one of any number of concurrent first users — and kept until the next
// AddVertex or AddEdge, so a database that is no longer mutated (every
// registered one) builds it once. Mutating a database while another
// goroutine reads it is as unsupported here as for Out and In.
func (d *DB) Forward() *CSR {
	if c := d.fwd.Load(); c != nil {
		return c
	}
	d.fwdMu.Lock()
	defer d.fwdMu.Unlock()
	c := d.fwd.Load()
	if c == nil {
		c = buildCSR(d)
		d.fwd.Store(c)
	}
	return c
}

// buildCSR flattens the labelled out-edges: a counting pass sizes the
// lists, a prefix sum places them back to back, a second pass fills them.
//
//ecrpq:bounds-checked
//ecrpq:charged resident graph data like out/in (4 bytes per edge and per vertex-label pair), owned by the database for as long as it is registered, not request scratch
func buildCSR(d *DB) *CSR {
	nsym := d.alpha.Size()
	c := &CSR{nsym: nsym, offsets: make([]int32, len(d.out)*nsym+1), targets: make([]int32, d.edges)}
	for v, es := range d.out {
		for _, e := range es {
			invariant.Assert(uint(e.Label) < uint(nsym), "graphdb: edge label outside the database alphabet")
			c.offsets[v*nsym+int(e.Label)+1]++
		}
	}
	for i := 1; i < len(c.offsets); i++ {
		c.offsets[i] += c.offsets[i-1]
	}
	next := make([]int32, len(c.offsets)-1) // where list i's next successor goes
	copy(next, c.offsets)
	for v, es := range d.out {
		for _, e := range es {
			i := v*nsym + int(e.Label)
			c.targets[next[i]] = int32(e.To)
			next[i]++
		}
	}
	return c
}
