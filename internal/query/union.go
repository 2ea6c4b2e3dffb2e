package query

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// UnionQuery is a UECRPQ: a finite union of ECRPQs with identical free
// variables (the paper's conclusion notes the characterization extends to
// these).
type UnionQuery struct {
	Disjuncts []*Query
}

// Validate checks each disjunct and that free-variable tuples and alphabets
// agree across disjuncts.
func (u *UnionQuery) Validate() error {
	if len(u.Disjuncts) == 0 {
		return fmt.Errorf("query: union with no disjuncts")
	}
	first := u.Disjuncts[0]
	for i, q := range u.Disjuncts {
		if err := q.Validate(); err != nil {
			return fmt.Errorf("query: disjunct %d: %v", i, err)
		}
		if len(q.Free) != len(first.Free) {
			return fmt.Errorf("query: disjunct %d has %d free variables, disjunct 0 has %d",
				i, len(q.Free), len(first.Free))
		}
		for j := range q.Free {
			if q.Free[j] != first.Free[j] {
				return fmt.Errorf("query: disjunct %d free variable %q ≠ %q",
					i, q.Free[j], first.Free[j])
			}
		}
		if q.Alphabet().Size() != first.Alphabet().Size() {
			return fmt.Errorf("query: disjunct %d over a different alphabet", i)
		}
	}
	return nil
}

// String renders the union as disjunct strings joined by ∨.
func (u *UnionQuery) String() string {
	parts := make([]string, len(u.Disjuncts))
	for i, q := range u.Disjuncts {
		parts[i] = q.String()
	}
	return strings.Join(parts, "  ∨  ")
}

// ParseUnion reads a UECRPQ: the DSL of Parse with disjuncts separated by
// lines consisting of the keyword "or". The alphabet line of the first
// disjunct applies to all; later disjuncts may repeat an identical alphabet
// line or omit it.
func ParseUnion(r io.Reader) (*UnionQuery, error) {
	sc := bufio.NewScanner(r)
	var blocks []string
	var cur strings.Builder
	var alphaLine string
	flush := func() {
		if strings.TrimSpace(cur.String()) != "" {
			blocks = append(blocks, cur.String())
		}
		cur.Reset()
	}
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == "or" {
			flush()
			continue
		}
		if strings.HasPrefix(trimmed, "alphabet") && alphaLine == "" {
			alphaLine = trimmed
		}
		cur.WriteString(line)
		cur.WriteString("\n")
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if len(blocks) == 0 {
		return nil, fmt.Errorf("query: empty union")
	}
	u := &UnionQuery{}
	for i, b := range blocks {
		if !strings.Contains(b, "alphabet") {
			if alphaLine == "" {
				return nil, fmt.Errorf("query: disjunct %d has no alphabet and none was declared", i)
			}
			b = alphaLine + "\n" + b
		}
		q, err := ParseString(b)
		if err != nil {
			return nil, fmt.Errorf("query: disjunct %d: %v", i, err)
		}
		u.Disjuncts = append(u.Disjuncts, q)
	}
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return u, nil
}

// ParseUnionString is ParseUnion over a string.
func ParseUnionString(s string) (*UnionQuery, error) {
	return ParseUnion(strings.NewReader(s))
}
