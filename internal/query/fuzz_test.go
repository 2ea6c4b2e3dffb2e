package query

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to the query DSL parser: it must never
// panic, and successfully-parsed queries must validate, survive
// normalization and hash as a parse that builds every relation afresh
// (bypassing the relation table) does.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"alphabet a b\nx -[$p1]-> y\nrel eq(p1, p1)",
		"alphabet a b\nfree x\nx -[a*b]-> y",
		"alphabet a\nx -[$p]-> y\nlang p a*",
		"alphabet a b\nx -[$p1]-> y\nx -[$p2]-> y\nrel eqlen(p1, p2)",
		"alphabet a\nrel hamming<=3(p, q)",
		"# comment\nalphabet a\nvertex q",
		"alphabet a\nx -[$p]-> y\nrel edit<=2(p, p)",
		"alphabet \nx -[]-> ",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseString(src)
		if err != nil {
			return
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("parsed query fails validation: %v\nsource: %q", err, src)
		}
		n := q.Normalize()
		if err := n.Validate(); err != nil {
			t.Fatalf("normalized query fails validation: %v", err)
		}
		_ = q.String()
		_ = q.IsCRPQ()
		var fresh *Query
		withoutIntern(func() { fresh, err = ParseString(src) })
		if err != nil {
			t.Fatalf("parses through the relation table but not without it: %v", err)
		}
		if Hash(q) != Hash(fresh) {
			t.Fatalf("hash %s through the relation table, %s without it\nsource: %q", Hash(q), Hash(fresh), src)
		}
	})
}

// FuzzParseUnion exercises the union parser.
func FuzzParseUnion(f *testing.F) {
	f.Add("alphabet a\nx -[a]-> y\nor\nx -[aa]-> y")
	f.Add("or\nor\nalphabet a")
	f.Add("alphabet a b\nfree x\nx -[$p]-> y\nor\nfree x\nx -[b]-> y")
	f.Fuzz(func(t *testing.T, src string) {
		u, err := ParseUnionString(src)
		if err != nil {
			return
		}
		if err := u.Validate(); err != nil {
			t.Fatalf("parsed union fails validation: %v\nsource: %q", err, src)
		}
		if strings.TrimSpace(u.String()) == "" {
			t.Fatal("empty union string")
		}
	})
}
