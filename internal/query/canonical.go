package query

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

// Canonical returns a stable canonical text for the query, suitable as a
// cache key: two Query values that differ only in the order of their
// reachability or relation atoms (or in how their relation atoms were
// ordered during construction) canonicalize identically, and any
// difference in alphabet, free-variable tuple, atom structure, or
// relation automata shows up in the text. Relations are fingerprinted by
// name plus a digest of their serialized NFA (synchro.Relation.Fingerprint,
// carried by every relation the parser takes from the relation table), so a
// custom relation reusing a built-in's name still keys distinctly.
//
// Canonicalization is purely syntactic: it does not identify semantically
// equivalent queries with different variable names or equivalent-but-
// differently-constructed automata. That is exactly the right granularity
// for a plan cache — a plan compiled for one text form is valid for any
// query with the same canonical form.
func Canonical(q *Query) string {
	var sb strings.Builder
	sb.WriteString("ecrpq-canonical/v1\n")
	fmt.Fprintf(&sb, "alphabet %s\n", strings.Join(q.alpha.Names(), " "))
	if len(q.Free) > 0 {
		// Free order is significant: it is the answer-tuple order.
		fmt.Fprintf(&sb, "free %s\n", strings.Join(q.Free, " "))
	}
	reach := make([]string, len(q.Reach))
	for i, r := range q.Reach {
		reach[i] = fmt.Sprintf("reach %s %s %s", r.Src, r.Path, r.Dst)
	}
	sort.Strings(reach)
	rels := make([]string, len(q.Rels))
	for i, ra := range q.Rels {
		rels[i] = fmt.Sprintf("rel %s#%s %s", ra.Rel.Name(), ra.Rel.Fingerprint(), strings.Join(ra.Paths, " "))
	}
	sort.Strings(rels)
	for _, line := range reach {
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	for _, line := range rels {
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Hash returns the hex SHA-256 of Canonical(q) — the stable identity used
// by plan-cache keys and for comparing parsed queries.
func Hash(q *Query) string {
	sum := sha256.Sum256([]byte(Canonical(q)))
	return hex.EncodeToString(sum[:])
}
