// Package ecrpq is a library for evaluating Extended Conjunctive Regular
// Path Queries (ECRPQ) over graph databases, reproducing the system studied
// in "When is the Evaluation of Extended CRPQ Tractable?" (Figueira &
// Ramanathan, PODS 2022).
//
// ECRPQs extend CRPQs with synchronous (regular/automatic) relations over
// path labels: a query can require two paths to have the same label, the
// same length, bounded edit distance, and so on. This package re-exports
// the user-facing API; the machinery lives under internal/:
//
//	internal/alphabet   alphabets, words, convolutions
//	internal/automata   generic NFA/DFA toolkit
//	internal/rex        regular expressions
//	internal/synchro    synchronous relations (the relation algebra)
//	internal/graphdb    graph databases and RPQ evaluation
//	internal/query      query AST, builder and DSL
//	internal/twolevel   2L graphs, cc_vertex / cc_hedge / treewidth
//	internal/cq         conjunctive-query substrate
//	internal/core       the evaluation engine (both strategies)
//	internal/reductions lower-bound constructions (Lemmas 5.1, 5.3, 5.4)
//	internal/workload   instance generators for the experiment suite
//	internal/experiments the E1–E12 + ablation experiment suite
//
// Quick start:
//
//	db, _ := ecrpq.ParseDB("alphabet a b\nu a v\nv b w\n")
//	q, _ := ecrpq.ParseQuery("alphabet a b\nx -[$p1]-> y\nx -[$p2]-> y\nrel eqlen(p1, p2)\n")
//	res, _ := ecrpq.Evaluate(db, q, ecrpq.Options{})
//	if res.Sat { fmt.Println(res.Paths["p1"].Format(db)) }
package ecrpq

import (
	"context"
	"io"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/automata"
	"ecrpq/internal/core"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/rex"
	"ecrpq/internal/synchro"
	"ecrpq/internal/twolevel"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Alphabet is a finite set of named edge symbols.
	Alphabet = alphabet.Alphabet
	// Symbol is a letter of an Alphabet.
	Symbol = alphabet.Symbol
	// Word is a finite word over an Alphabet.
	Word = alphabet.Word
	// DB is an edge-labelled graph database.
	DB = graphdb.DB
	// Path is a concrete path of a DB.
	Path = graphdb.Path
	// Query is an ECRPQ (or CRPQ).
	Query = query.Query
	// QueryBuilder constructs queries fluently.
	QueryBuilder = query.Builder
	// Relation is a synchronous word relation.
	Relation = synchro.Relation
	// LimitError is the error a relation builder (EditDistanceAtMost, or
	// a built-in named in a query text) returns instead of building an
	// automaton past a fixed size.
	LimitError = synchro.LimitError
	// LanguageNFA is an automaton over single symbols (a regular language).
	LanguageNFA = automata.NFA[alphabet.Symbol]
	// Result is a Boolean evaluation outcome with witnesses.
	Result = core.Result
	// Options configures evaluation.
	Options = core.Options
	// Strategy selects an evaluation algorithm.
	Strategy = core.Strategy
	// Measures bundles the paper's three structural measures of a query.
	Measures = twolevel.Measures
	// EvalClass is a combined-complexity regime of Theorem 3.2.
	EvalClass = twolevel.EvalClass
	// ParamClass is a parameterized-complexity regime of Theorem 3.1.
	ParamClass = twolevel.ParamClass
)

// Evaluation strategies (see core.Options).
const (
	Auto      = core.Auto
	Generic   = core.Generic
	Reduction = core.Reduction
)

// Pad is the convolution padding symbol ⊥.
const Pad = alphabet.Pad

// NewAlphabet returns an alphabet with the given symbol names.
func NewAlphabet(names ...string) (*Alphabet, error) { return alphabet.New(names...) }

// NewDB returns an empty database over the alphabet.
func NewDB(a *Alphabet) *DB { return graphdb.New(a) }

// ParseDB reads a database from its textual format (see graphdb.Parse).
func ParseDB(text string) (*DB, error) { return graphdb.ParseString(text) }

// ReadDB reads a database from a reader.
func ReadDB(r io.Reader) (*DB, error) { return graphdb.Parse(r) }

// NewQuery returns a query builder over the alphabet.
func NewQuery(a *Alphabet) *QueryBuilder { return query.NewBuilder(a) }

// ParseQuery reads a query from its textual DSL (see query.Parse).
func ParseQuery(text string) (*Query, error) { return query.ParseString(text) }

// ReadQuery reads a query from a reader.
func ReadQuery(r io.Reader) (*Query, error) { return query.Parse(r) }

// CompileRegex compiles a regular expression over the alphabet to an NFA.
func CompileRegex(a *Alphabet, expr string) (*LanguageNFA, error) {
	return rex.CompileString(a, expr)
}

// Evaluate decides whether the query holds on the database (Boolean
// semantics), returning a witness when satisfied.
func Evaluate(db *DB, q *Query, opts Options) (*Result, error) {
	return core.Evaluate(db, q, opts)
}

// Answers computes the answer set of a query with free variables.
func Answers(db *DB, q *Query, opts Options) ([][]int, error) {
	return core.Answers(db, q, opts)
}

// EvaluateContext is Evaluate with cancellation: the Lemma 4.2 product
// search and the Lemma 4.3 materialization sweep poll ctx periodically and
// abort with ctx.Err() when it is cancelled or its deadline passes.
func EvaluateContext(ctx context.Context, db *DB, q *Query, opts Options) (*Result, error) {
	return core.EvaluateContext(ctx, db, q, opts)
}

// AnswersContext is Answers with cancellation.
func AnswersContext(ctx context.Context, db *DB, q *Query, opts Options) ([][]int, error) {
	return core.AnswersContext(ctx, db, q, opts)
}

// Prepared is a query compiled once for repeated evaluation; see
// core.Prepare. Prepared values are immutable and safe for concurrent use.
type Prepared = core.Prepared

// Materialization is the cached db-dependent half of a Reduction plan.
type Materialization = core.Materialization

// Prepare compiles a query for repeated evaluation (validation,
// decomposition, strategy resolution and component merging happen once).
func Prepare(q *Query, opts Options) (*Prepared, error) { return core.Prepare(q, opts) }

// CanonicalQuery returns the canonical text of a query: syntactically
// equal queries (up to atom order and relation naming) share it.
func CanonicalQuery(q *Query) string { return query.Canonical(q) }

// QueryHash returns the SHA-256 hex digest of CanonicalQuery(q) — the
// plan-cache key used by ecrpqd.
func QueryHash(q *Query) string { return query.Hash(q) }

// VerifyWitness checks that a satisfying Result genuinely certifies
// D ⊨ q.
func VerifyWitness(db *DB, q *Query, res *Result) error {
	return core.VerifyWitness(db, q, res)
}

// QueryMeasures computes the structural measures (cc_vertex, cc_hedge,
// treewidth of G^node) of the query's normalized abstraction.
func QueryMeasures(q *Query) Measures { return twolevel.QueryMeasures(q) }

// Classify applies the case analysis of Theorems 3.1 and 3.2 to a query
// family described by which measures stay bounded.
func Classify(ccVertexBounded, ccHedgeBounded, twBounded bool) (EvalClass, ParamClass) {
	return twolevel.Classify(ccVertexBounded, ccHedgeBounded, twBounded)
}

// Synchronous relation constructors (see internal/synchro).

// Equality returns the k-ary relation {(w, ..., w)}.
func Equality(a *Alphabet, k int) *Relation { return synchro.Equality(a, k) }

// EqualLength returns the k-ary same-length relation.
func EqualLength(a *Alphabet, k int) *Relation { return synchro.EqualLength(a, k) }

// PrefixOf returns the binary prefix relation.
func PrefixOf(a *Alphabet) *Relation { return synchro.PrefixOf(a) }

// HammingAtMost returns the binary ≤d-mismatch relation on equal-length
// words.
func HammingAtMost(a *Alphabet, d int) *Relation { return synchro.HammingAtMost(a, d) }

// EditDistanceAtMost returns the binary Levenshtein-distance-≤d relation.
func EditDistanceAtMost(a *Alphabet, d int) (*Relation, error) {
	return synchro.EditDistanceAtMost(a, d)
}

// LengthDiffAtMost returns the binary ||u|−|v|| ≤ d relation.
func LengthDiffAtMost(a *Alphabet, d int) *Relation { return synchro.LengthDiffAtMost(a, d) }

// Language lifts a regular expression to a unary relation.
func Language(a *Alphabet, expr string) (*Relation, error) {
	nfa, err := rex.CompileString(a, expr)
	if err != nil {
		return nil, err
	}
	return synchro.Lift(a, nfa).WithName(expr), nil
}

// UniversalRelation returns (A*)^k.
func UniversalRelation(a *Alphabet, k int) *Relation { return synchro.Universal(a, k) }

// ShorterThan returns the binary relation {(u, v) : |u| < |v|}.
func ShorterThan(a *Alphabet) *Relation { return synchro.ShorterThan(a) }

// LexLeq returns the binary lexicographic-order relation (proper prefixes
// precede their extensions).
func LexLeq(a *Alphabet) *Relation { return synchro.LexLeq(a) }

// CommonPrefixAtLeast returns the binary relation of word pairs sharing a
// common prefix of length ≥ k.
func CommonPrefixAtLeast(a *Alphabet, k int) *Relation { return synchro.CommonPrefixAtLeast(a, k) }

// SameLastSymbol returns the binary relation of non-empty word pairs ending
// with the same symbol.
func SameLastSymbol(a *Alphabet) *Relation { return synchro.SameLastSymbol(a) }

// UECRPQ support: finite unions of ECRPQs (the paper's conclusion notes the
// characterization extends to these).
type (
	// UnionQuery is a finite union of ECRPQs with identical free variables.
	UnionQuery = query.UnionQuery
	// UnionResult is the outcome of evaluating a UnionQuery.
	UnionResult = core.UnionResult
)

// ParseUnionQuery reads a UECRPQ: disjunct blocks in the query DSL separated
// by lines containing just "or".
func ParseUnionQuery(text string) (*UnionQuery, error) { return query.ParseUnionString(text) }

// ReadUnionQuery reads a UECRPQ from a reader.
func ReadUnionQuery(r io.Reader) (*UnionQuery, error) { return query.ParseUnion(r) }

// EvaluateUnion decides a UECRPQ: satisfied iff some disjunct is.
func EvaluateUnion(db *DB, u *UnionQuery, opts Options) (*UnionResult, error) {
	return core.EvaluateUnion(db, u, opts)
}

// AnswersUnion computes the union of the disjuncts' answer sets.
func AnswersUnion(db *DB, u *UnionQuery, opts Options) ([][]int, error) {
	return core.AnswersUnion(db, u, opts)
}

// EvaluateUnionContext is EvaluateUnion with cancellation.
func EvaluateUnionContext(ctx context.Context, db *DB, u *UnionQuery, opts Options) (*UnionResult, error) {
	return core.EvaluateUnionContext(ctx, db, u, opts)
}

// AnswersUnionContext is AnswersUnion with cancellation.
func AnswersUnionContext(ctx context.Context, db *DB, u *UnionQuery, opts Options) ([][]int, error) {
	return core.AnswersUnionContext(ctx, db, u, opts)
}

// Plan describes how a query would be evaluated (strategy, components,
// measures, predicted regimes).
type Plan = core.Plan

// Explain computes the evaluation plan for a query without a database.
func Explain(q *Query, opts Options) (*Plan, error) { return core.Explain(q, opts) }

// ParseRelation reads a synchronous relation from its textual form (see
// internal/synchro.Parse for the format).
func ParseRelation(r io.Reader) (*Relation, error) { return synchro.Parse(r) }

// ParseRelationString is ParseRelation over a string.
func ParseRelationString(s string) (*Relation, error) { return synchro.ParseString(s) }

// ParseQueryWithRelations parses a query resolving relation atom names
// against the registry before the built-ins.
func ParseQueryWithRelations(r io.Reader, registry map[string]*Relation) (*Query, error) {
	return query.ParseWithRelations(r, registry)
}

// Satisfiable decides whether the query holds on some database; when it
// does, a canonical witness database (with its satisfying Result) is
// returned. ECRPQ satisfiability is PSPACE-complete, and reduces to
// component-relation non-emptiness.
func Satisfiable(q *Query) (*DB, *Result, bool, error) { return core.Satisfiable(q) }

// Simplify returns a semantically equivalent query with duplicate and
// universal relation atoms removed.
func Simplify(q *Query) *Query { return query.Simplify(q) }

// NaiveBounded is the brute-force baseline evaluator (path enumeration up to
// maxPathLen edges per path variable): sound, complete only relative to the
// bound. Intended for differential testing and ablations.
func NaiveBounded(db *DB, q *Query, maxPathLen int) (*Result, error) {
	return core.NaiveBounded(db, q, maxPathLen)
}
