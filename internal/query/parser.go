package query

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/synchro"
)

// Parse reads a query from its textual DSL. Format, one clause per line:
//
//	# comment
//	alphabet a b c            (required, first non-comment line)
//	free x y                  (optional: free node variables)
//	x -[$p1]-> y              (reachability atom with a named path variable)
//	x -[a*b]-> z              (CRPQ sugar: fresh path variable + language)
//	lang p1 (a|b)*            (language constraint on a named path variable)
//	rel eqlen(p1, p2)         (built-in relation atom)
//
// Built-in relation names: eq, eqlen, prefix, universal, hamming<=N,
// edit<=N, lendiff<=N. Relation arity is inferred from the argument count
// (eq, eqlen, universal are variadic; the others are binary).
func Parse(r io.Reader) (*Query, error) {
	return ParseWithRelations(r, nil)
}

// ParseWithRelations is Parse with a registry of custom named relations
// (e.g. loaded via synchro.Parse): a relation atom name is resolved against
// the registry first, then against the built-ins. Registry relations must
// match the query's alphabet size and the atom's argument count.
func ParseWithRelations(r io.Reader, registry map[string]*synchro.Relation) (*Query, error) {
	sc := bufio.NewScanner(r)
	var b *Builder
	var alpha *alphabet.Alphabet
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == "alphabet":
			if alpha != nil {
				return nil, fmt.Errorf("query: line %d: duplicate alphabet line", lineNo)
			}
			a, err := alphabet.New(fields[1:]...)
			if err != nil {
				return nil, fmt.Errorf("query: line %d: %v", lineNo, err)
			}
			alpha = a
			b = NewBuilder(a)
		case alpha == nil:
			return nil, fmt.Errorf("query: line %d: alphabet line must come first", lineNo)
		case fields[0] == "free":
			b.Free(fields[1:]...)
		case fields[0] == "lang":
			if len(fields) < 3 {
				return nil, fmt.Errorf("query: line %d: want 'lang <pathvar> <regex>'", lineNo)
			}
			b.Lang(fields[1], strings.Join(fields[2:], ""))
		case fields[0] == "rel":
			rest := strings.TrimSpace(strings.TrimPrefix(line, "rel"))
			if err := parseRelClause(b, alpha, registry, rest); err != nil {
				return nil, fmt.Errorf("query: line %d: %w", lineNo, err)
			}
		default:
			if err := parseReachClause(b, line); err != nil {
				return nil, fmt.Errorf("query: line %d: %v", lineNo, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("query: no alphabet line found")
	}
	return b.Build()
}

// ParseString is Parse over a string.
func ParseString(s string) (*Query, error) { return Parse(strings.NewReader(s)) }

// parseReachClause parses  src -[X]-> dst  where X is $pathvar or a regex.
func parseReachClause(b *Builder, line string) error {
	open := strings.Index(line, "-[")
	close_ := strings.LastIndex(line, "]->")
	if open < 0 || close_ < 0 || close_ < open {
		return fmt.Errorf("unrecognized clause %q", line)
	}
	src := strings.TrimSpace(line[:open])
	inner := strings.TrimSpace(line[open+2 : close_])
	dst := strings.TrimSpace(line[close_+3:])
	if src == "" || dst == "" || inner == "" {
		return fmt.Errorf("malformed reachability atom %q", line)
	}
	if strings.ContainsAny(src, " \t") || strings.ContainsAny(dst, " \t") {
		return fmt.Errorf("node variable with whitespace in %q", line)
	}
	if strings.HasPrefix(inner, "$") {
		pv := inner[1:]
		if pv == "" {
			return fmt.Errorf("empty path variable in %q", line)
		}
		b.Reach(src, pv, dst)
		return nil
	}
	b.Edge(src, inner, dst)
	return nil
}

// parseRelClause parses  name(arg1, arg2, ...).
func parseRelClause(b *Builder, alpha *alphabet.Alphabet, registry map[string]*synchro.Relation, s string) error {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return fmt.Errorf("malformed relation atom %q", s)
	}
	name := strings.TrimSpace(s[:open])
	argsStr := s[open+1 : len(s)-1]
	var args []string
	for _, a := range strings.Split(argsStr, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return fmt.Errorf("empty argument in relation atom %q", s)
		}
		args = append(args, a)
	}
	if len(args) == 0 {
		return fmt.Errorf("relation atom %q has no arguments", s)
	}
	if rel, ok := registry[name]; ok {
		if rel.Arity() != len(args) {
			return fmt.Errorf("custom relation %q has arity %d, got %d arguments", name, rel.Arity(), len(args))
		}
		if rel.Alphabet().Size() != alpha.Size() {
			return fmt.Errorf("custom relation %q is over a different alphabet", name)
		}
		b.Rel(rel.WithName(name), args...)
		return nil
	}
	rel, err := BuiltinRelation(alpha, name, len(args))
	if err != nil {
		return err
	}
	b.Rel(rel, args...)
	return nil
}

// BuiltinRelation resolves a built-in relation by name and arity: eq, eqlen,
// prefix, universal, hamming<=N, edit<=N, lendiff<=N. The relation comes from
// the relation table (see internRelation) and must not be written to. A
// built-in whose automaton would exceed maxBuiltinTransitions — or, for
// edit<=N, synchro.MaxEditCompositionStates — is refused with a
// *synchro.LimitError before it is built.
func BuiltinRelation(a *alphabet.Alphabet, name string, arity int) (*synchro.Relation, error) {
	return internRelation(a, 'b', name+"("+strconv.Itoa(arity)+")", func(a *alphabet.Alphabet) (*synchro.Relation, error) {
		return builtinRelation(a, name, arity)
	})
}

// maxBuiltinTransitions bounds the automaton a built-in relation may build
// from a query text: eqlen has |A|^arity transitions, hamming<=N about
// (N+1)·|A|² and lendiff<=N |A|² + 2N·|A|, so a short text could otherwise
// ask for any amount of memory.
const maxBuiltinTransitions = 1 << 16

// withinBuiltinLimit reports whether n factors multiply to at most
// maxBuiltinTransitions, and otherwise returns the error refusing name.
func withinBuiltinLimit(a *alphabet.Alphabet, name string, factors ...int) error {
	n := 1
	for _, f := range factors {
		if n *= max(f, 1); n > maxBuiltinTransitions {
			return &synchro.LimitError{Relation: name, Symbols: a.Size(), Limit: maxBuiltinTransitions, Unit: "transitions"}
		}
	}
	return nil
}

func builtinRelation(a *alphabet.Alphabet, name string, arity int) (*synchro.Relation, error) {
	switch {
	case name == "eq":
		if arity < 2 {
			return nil, fmt.Errorf("eq needs arity ≥ 2, got %d", arity)
		}
		return synchro.Equality(a, arity), nil
	case name == "eqlen":
		if arity < 2 {
			return nil, fmt.Errorf("eqlen needs arity ≥ 2, got %d", arity)
		}
		factors := make([]int, arity)
		for i := range factors {
			factors[i] = a.Size()
		}
		if err := withinBuiltinLimit(a, name, factors...); err != nil {
			return nil, err
		}
		return synchro.EqualLength(a, arity), nil
	case name == "prefix":
		if arity != 2 {
			return nil, fmt.Errorf("prefix is binary, got arity %d", arity)
		}
		return synchro.PrefixOf(a), nil
	case name == "universal":
		return synchro.Universal(a, arity), nil
	case strings.HasPrefix(name, "hamming<="):
		d, err := strconv.Atoi(strings.TrimPrefix(name, "hamming<="))
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad bound in %q", name)
		}
		if arity != 2 {
			return nil, fmt.Errorf("%s is binary, got arity %d", name, arity)
		}
		if err := withinBuiltinLimit(a, name, min(d, maxBuiltinTransitions)+1, a.Size(), a.Size()); err != nil {
			return nil, err
		}
		return synchro.HammingAtMost(a, d), nil
	case strings.HasPrefix(name, "edit<="):
		d, err := strconv.Atoi(strings.TrimPrefix(name, "edit<="))
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad bound in %q", name)
		}
		if arity != 2 {
			return nil, fmt.Errorf("%s is binary, got arity %d", name, arity)
		}
		if err := withinBuiltinLimit(a, name, 4, a.Size(), a.Size()); err != nil {
			return nil, err // the distance-1 automaton: substitutions, insertions, deletions
		}
		return synchro.EditDistanceAtMost(a, d)
	case strings.HasPrefix(name, "lendiff<="):
		d, err := strconv.Atoi(strings.TrimPrefix(name, "lendiff<="))
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad bound in %q", name)
		}
		if arity != 2 {
			return nil, fmt.Errorf("%s is binary, got arity %d", name, arity)
		}
		if err := withinBuiltinLimit(a, name, 2*min(d, maxBuiltinTransitions)+a.Size(), a.Size()); err != nil {
			return nil, err
		}
		return synchro.LengthDiffAtMost(a, d), nil
	default:
		return nil, fmt.Errorf("unknown relation %q", name)
	}
}
