package synchro

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/automata"
)

// Format writes the relation in a line-oriented textual form readable by
// Parse:
//
//	relation <name>
//	arity 2
//	alphabet a b
//	states 3
//	start 0
//	accept 0 2
//	0 (a,a) 0
//	0 (a,⊥) 1
//	...
//
// Universal relations serialize as "universal" instead of states and
// transitions.
func (r *Relation) Format(w io.Writer) error {
	name := r.name
	if name == "" {
		name = "rel"
	}
	if _, err := fmt.Fprintf(w, "relation %s\narity %d\nalphabet %s\n",
		name, r.arity, strings.Join(r.alpha.Names(), " ")); err != nil {
		return err
	}
	if r.universal {
		_, err := fmt.Fprintln(w, "universal")
		return err
	}
	nfa := r.nfa
	if _, err := fmt.Fprintf(w, "states %d\nstart %s\naccept %s\n", nfa.NumStates(),
		joinInts(nfa.StartStates()), joinInts(nfa.AcceptStates())); err != nil {
		return err
	}
	for p, trs := range r.Table().Trans {
		trs = slices.Clone(trs)
		slices.SortFunc(trs, func(a, b Transition) int {
			return cmp.Or(cmp.Compare(a.To, b.To), strings.Compare(a.Tuple.Key(), b.Tuple.Key()))
		})
		for _, tr := range trs {
			if _, err := fmt.Fprintf(w, "%d %s %d\n", p, formatTuple(r.alpha, tr.Tuple), tr.To); err != nil {
				return err
			}
		}
	}
	return nil
}

// FormatString renders the relation as text.
func (r *Relation) FormatString() string {
	var sb strings.Builder
	_ = r.Format(&sb)
	return sb.String()
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, " ")
}

func formatTuple(a *alphabet.Alphabet, t alphabet.Tuple) string {
	parts := make([]string, len(t))
	for i, s := range t {
		if s == alphabet.Pad {
			parts[i] = "⊥"
		} else {
			parts[i] = a.Name(s)
		}
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Parse reads a relation in the Format textual form.
func Parse(r io.Reader) (*Relation, error) {
	sc := bufio.NewScanner(r)
	var (
		name      string
		arity     = -1
		alpha     *alphabet.Alphabet
		universal bool
		nfa       *automata.NFA[string]
		numStates = -1
	)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "relation":
			if len(fields) != 2 {
				return nil, fmt.Errorf("synchro: line %d: want 'relation <name>'", lineNo)
			}
			name = fields[1]
		case "arity":
			v, err := strconv.Atoi(fields[len(fields)-1])
			if err != nil || v < 1 {
				return nil, fmt.Errorf("synchro: line %d: bad arity", lineNo)
			}
			arity = v
		case "alphabet":
			a, err := alphabet.New(fields[1:]...)
			if err != nil {
				return nil, fmt.Errorf("synchro: line %d: %v", lineNo, err)
			}
			alpha = a
		case "universal":
			universal = true
		case "states":
			v, err := strconv.Atoi(fields[len(fields)-1])
			if err != nil || v < 0 {
				return nil, fmt.Errorf("synchro: line %d: bad state count", lineNo)
			}
			numStates = v
			nfa = automata.NewNFA[string](v)
		case "start", "accept":
			if nfa == nil {
				return nil, fmt.Errorf("synchro: line %d: %s before states", lineNo, fields[0])
			}
			for _, f := range fields[1:] {
				q, err := strconv.Atoi(f)
				if err != nil || q < 0 || q >= numStates {
					return nil, fmt.Errorf("synchro: line %d: bad state %q", lineNo, f)
				}
				if fields[0] == "start" {
					nfa.SetStart(q, true)
				} else {
					nfa.SetAccept(q, true)
				}
			}
		default:
			// Transition: p (x,y) q
			if nfa == nil || alpha == nil || arity < 0 {
				return nil, fmt.Errorf("synchro: line %d: transition before header", lineNo)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("synchro: line %d: want 'p (letters) q'", lineNo)
			}
			p, err1 := strconv.Atoi(fields[0])
			q, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || p < 0 || p >= numStates || q < 0 || q >= numStates {
				return nil, fmt.Errorf("synchro: line %d: bad transition states", lineNo)
			}
			t, err := parseTuple(alpha, arity, fields[1])
			if err != nil {
				return nil, fmt.Errorf("synchro: line %d: %v", lineNo, err)
			}
			nfa.AddTransition(p, t.Key(), q)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if alpha == nil || arity < 0 {
		return nil, fmt.Errorf("synchro: missing arity or alphabet header")
	}
	if universal {
		return Universal(alpha, arity).WithName(name), nil
	}
	if nfa == nil {
		return nil, fmt.Errorf("synchro: missing states section")
	}
	rel, err := FromNFA(alpha, arity, nfa)
	if err != nil {
		return nil, err
	}
	return rel.WithName(name), nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*Relation, error) { return Parse(strings.NewReader(s)) }

func parseTuple(a *alphabet.Alphabet, arity int, s string) (alphabet.Tuple, error) {
	if !strings.HasPrefix(s, "(") || !strings.HasSuffix(s, ")") {
		return nil, fmt.Errorf("malformed letter %q", s)
	}
	parts := strings.Split(s[1:len(s)-1], ",")
	if len(parts) != arity {
		return nil, fmt.Errorf("letter %q has %d tracks, want %d", s, len(parts), arity)
	}
	t := make(alphabet.Tuple, arity)
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "⊥" || p == "_" {
			t[i] = alphabet.Pad
			continue
		}
		sym, ok := a.Lookup(p)
		if !ok {
			return nil, fmt.Errorf("unknown symbol %q", p)
		}
		t[i] = sym
	}
	return t, nil
}
