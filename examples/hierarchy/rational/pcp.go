package rational

import (
	"fmt"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/graphdb"
)

// PCPInstance is a Post Correspondence Problem instance: dominoes (X_i, Y_i)
// over a word alphabet. A solution is a non-empty index sequence i₁...i_k
// with X_{i1}···X_{ik} = Y_{i1}···Y_{ik}. PCP is undecidable, and it reduces
// to CRPQ+Rational evaluation — the reason the paper's ECRPQ stops at
// synchronous relations.
type PCPInstance struct {
	Alphabet *alphabet.Alphabet
	X, Y     []alphabet.Word
}

// Validate checks the instance shape.
func (p *PCPInstance) Validate() error {
	if len(p.X) == 0 || len(p.X) != len(p.Y) {
		return fmt.Errorf("rational: PCP needs equally many non-zero X and Y dominoes")
	}
	for i := range p.X {
		if !p.X[i].Valid(p.Alphabet) || !p.Y[i].Valid(p.Alphabet) {
			return fmt.Errorf("rational: domino %d outside the alphabet", i)
		}
	}
	return nil
}

// SolveBounded searches for a PCP solution using at most maxDominoes
// dominoes (sound, incomplete — the problem is undecidable).
func (p *PCPInstance) SolveBounded(maxDominoes int) ([]int, bool) {
	if p.Validate() != nil {
		return nil, false
	}
	var seq []int
	var rec func(depth int, xs, ys alphabet.Word) bool
	rec = func(depth int, xs, ys alphabet.Word) bool {
		if depth > 0 && xs.Equal(ys) {
			return true
		}
		if depth == maxDominoes {
			return false
		}
		// Prune: one must be a prefix of the other.
		short, long := xs, ys
		if len(short) > len(long) {
			short, long = long, short
		}
		for i := range short {
			if short[i] != long[i] {
				return false
			}
		}
		for i := range p.X {
			seq = append(seq, i)
			if rec(depth+1, append(xs.Clone(), p.X[i]...), append(ys.Clone(), p.Y[i]...)) {
				return true
			}
			seq = seq[:len(seq)-1]
		}
		return false
	}
	if rec(0, alphabet.Word{}, alphabet.Word{}) {
		return append([]int(nil), seq...), true
	}
	return nil, false
}

// ToCRPQRational encodes the PCP instance as a CRPQ+Rational evaluation
// instance: a fixed database and query such that the query holds iff the
// instance has a solution (witnessed within the path-length bound). The
// encoding uses three path variables on a loop database:
//
//	π  reads an index sequence i₁...i_k (one symbol per domino),
//	σ  reads a word w over the instance alphabet,
//	with rational atoms  Xcat(π, σ)  and  Ycat(π, σ)
//
// where Xcat = {(i₁...i_k, X_{i1}···X_{ik})} is the domino-concatenation
// morphism (and similarly Ycat). The query holds iff some non-empty index
// sequence concatenates equally on both sides — exactly PCP.
func (p *PCPInstance) ToCRPQRational() (*graphdb.DB, *RationalQuery, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	// Combined alphabet: instance symbols + one index symbol per domino.
	idxNames := make([]string, len(p.X))
	for i := range idxNames {
		idxNames[i] = fmt.Sprintf("i%d", i+1)
	}
	ext, err := p.Alphabet.Extend(idxNames...)
	if err != nil {
		return nil, nil, err
	}
	base := p.Alphabet.Size()

	db := graphdb.New(ext)
	v := db.MustAddVertex("v")
	for _, s := range ext.Symbols() {
		db.MustAddEdge(v, s, v)
	}

	// Morphism transducers over the extended alphabet: index symbol i ↦
	// X_i (respectively Y_i); instance symbols have no preimage (the input
	// tape must be a pure index sequence, enforced by giving them no
	// transition).
	mk := func(words []alphabet.Word, name string) *Transducer {
		t := NewTransducer(ext)
		q0 := t.AddState()
		qRun := t.AddState()
		t.SetStart(q0)
		t.SetAccept(qRun) // at least one domino (non-empty solution)
		for i, w := range words {
			idx := alphabet.Symbol(base + i)
			t.MustAdd(q0, alphabet.Word{idx}, w, qRun)
			t.MustAdd(qRun, alphabet.Word{idx}, w, qRun)
		}
		return t.WithName(name)
	}
	xcat := mk(p.X, "Xcat")
	ycat := mk(p.Y, "Ycat")

	q := &RationalQuery{
		Reach: []ReachAtom{
			{Src: "x", Dst: "x", Path: "pi"},
			{Src: "x", Dst: "x", Path: "sigma"},
		},
		Atoms: []RationalAtom{
			{Rel: xcat, Path1: "pi", Path2: "sigma"},
			{Rel: ycat, Path1: "pi", Path2: "sigma"},
		},
	}
	return db, q, nil
}
