// Package rex implements regular expressions over a named alphabet and
// their compilation to NFAs (Thompson's construction).
//
// Syntax (standard, over the symbols of an alphabet.Alphabet):
//
//	union        e1|e2
//	concat       e1e2
//	closure      e*   e+   e?
//	grouping     (e)
//	any symbol   .
//	symbol class [abc]          (single-character symbol names only)
//	empty word   ε  or  ()
//	multi-char   <name>         (for symbols whose name is longer than 1 rune)
//	escape       \* \| \( ...   (literal metacharacter as a symbol name)
//
// The paper writes union as "+" (e.g. (a+b)*); this package accepts "|",
// which is unambiguous with the postfix Kleene plus.
package rex

import (
	"fmt"
	"strings"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/automata"
	"ecrpq/internal/invariant"
)

// Expr is a parsed regular expression.
type Expr struct {
	root node
}

// node is a regex AST node.
type node interface {
	fmt.Stringer
	compile(c *compiler) frag
}

type (
	emptyNode  struct{}                    // ε
	symbolNode struct{ s alphabet.Symbol } // a single symbol
	anyNode    struct{}                    // . — any symbol of the alphabet
	classNode  struct{ set []alphabet.Symbol }
	concatNode struct{ parts []node }
	unionNode  struct{ parts []node }
	starNode   struct{ sub node }
	plusNode   struct{ sub node }
	optNode    struct{ sub node }
)

func (emptyNode) String() string    { return "ε" }
func (n symbolNode) String() string { return fmt.Sprintf("sym(%d)", n.s) }
func (anyNode) String() string      { return "." }
func (n classNode) String() string {
	return fmt.Sprintf("class(%v)", n.set)
}
func (n concatNode) String() string {
	parts := make([]string, len(n.parts))
	for i, p := range n.parts {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, "·") + ")"
}
func (n unionNode) String() string {
	parts := make([]string, len(n.parts))
	for i, p := range n.parts {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, "|") + ")"
}
func (n starNode) String() string { return n.sub.String() + "*" }
func (n plusNode) String() string { return n.sub.String() + "+" }
func (n optNode) String() string  { return n.sub.String() + "?" }

// Parse parses a regular expression over the given alphabet.
func Parse(a *alphabet.Alphabet, src string) (*Expr, error) {
	p := &parser{alpha: a, src: []rune(src)}
	n, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("rex: unexpected %q at position %d in %q", string(p.src[p.pos]), p.pos, src)
	}
	return &Expr{root: n}, nil
}

type parser struct {
	alpha *alphabet.Alphabet
	src   []rune
	pos   int
}

func (p *parser) peek() (rune, bool) {
	if p.pos >= len(p.src) {
		return 0, false
	}
	return p.src[p.pos], true
}

func (p *parser) parseUnion() (node, error) {
	first, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	parts := []node{first}
	for {
		r, ok := p.peek()
		if !ok || r != '|' {
			break
		}
		p.pos++
		next, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return unionNode{parts}, nil
}

func (p *parser) parseConcat() (node, error) {
	var parts []node
	for {
		r, ok := p.peek()
		if !ok || r == '|' || r == ')' {
			break
		}
		f, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		parts = append(parts, f)
	}
	switch len(parts) {
	case 0:
		return emptyNode{}, nil
	case 1:
		return parts[0], nil
	}
	return concatNode{parts}, nil
}

func (p *parser) parsePostfix() (node, error) {
	n, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		r, ok := p.peek()
		if !ok {
			break
		}
		switch r {
		case '*':
			p.pos++
			n = starNode{n}
		case '+':
			p.pos++
			n = plusNode{n}
		case '?':
			p.pos++
			n = optNode{n}
		default:
			return n, nil
		}
	}
	return n, nil
}

func (p *parser) parseAtom() (node, error) {
	r, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("rex: unexpected end of expression")
	}
	switch r {
	case '(':
		p.pos++
		inner, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		r2, ok := p.peek()
		if !ok || r2 != ')' {
			return nil, fmt.Errorf("rex: missing ')' at position %d", p.pos)
		}
		p.pos++
		return inner, nil
	case '.':
		p.pos++
		return anyNode{}, nil
	case 'ε':
		p.pos++
		return emptyNode{}, nil
	case '[':
		p.pos++
		var set []alphabet.Symbol
		for {
			r2, ok := p.peek()
			if !ok {
				return nil, fmt.Errorf("rex: missing ']'")
			}
			if r2 == ']' {
				p.pos++
				break
			}
			p.pos++
			s, found := p.alpha.Lookup(string(r2))
			if !found {
				return nil, fmt.Errorf("rex: unknown symbol %q in class", string(r2))
			}
			set = append(set, s)
		}
		if len(set) == 0 {
			return nil, fmt.Errorf("rex: empty symbol class")
		}
		return classNode{set}, nil
	case '<':
		p.pos++
		start := p.pos
		for {
			r2, ok := p.peek()
			if !ok {
				return nil, fmt.Errorf("rex: missing '>'")
			}
			if r2 == '>' {
				break
			}
			p.pos++
		}
		name := string(p.src[start:p.pos])
		p.pos++ // consume '>'
		s, found := p.alpha.Lookup(name)
		if !found {
			return nil, fmt.Errorf("rex: unknown symbol <%s>", name)
		}
		return symbolNode{s}, nil
	case '\\':
		p.pos++
		r2, ok := p.peek()
		if !ok {
			return nil, fmt.Errorf("rex: dangling escape")
		}
		p.pos++
		s, found := p.alpha.Lookup(string(r2))
		if !found {
			return nil, fmt.Errorf("rex: unknown escaped symbol %q", string(r2))
		}
		return symbolNode{s}, nil
	case ')', '|', '*', '+', '?', ']', '>':
		return nil, fmt.Errorf("rex: unexpected %q at position %d", string(r), p.pos)
	default:
		p.pos++
		s, found := p.alpha.Lookup(string(r))
		if !found {
			return nil, fmt.Errorf("rex: unknown symbol %q at position %d", string(r), p.pos-1)
		}
		return symbolNode{s}, nil
	}
}

// frag is a Thompson fragment: one entry state, one exit state.
type frag struct{ in, out int }

type compiler struct {
	nfa   *automata.NFA[alphabet.Symbol]
	alpha *alphabet.Alphabet
}

func (c *compiler) newFrag() frag {
	return frag{in: c.nfa.AddState(), out: c.nfa.AddState()}
}

func (n emptyNode) compile(c *compiler) frag {
	f := c.newFrag()
	c.nfa.AddEps(f.in, f.out)
	return f
}

func (n symbolNode) compile(c *compiler) frag {
	f := c.newFrag()
	c.nfa.AddTransition(f.in, n.s, f.out)
	return f
}

func (n anyNode) compile(c *compiler) frag {
	f := c.newFrag()
	for _, s := range c.alpha.Symbols() {
		c.nfa.AddTransition(f.in, s, f.out)
	}
	return f
}

func (n classNode) compile(c *compiler) frag {
	f := c.newFrag()
	for _, s := range n.set {
		c.nfa.AddTransition(f.in, s, f.out)
	}
	return f
}

func (n concatNode) compile(c *compiler) frag {
	cur := n.parts[0].compile(c)
	for _, p := range n.parts[1:] {
		next := p.compile(c)
		c.nfa.AddEps(cur.out, next.in)
		cur = frag{in: cur.in, out: next.out}
	}
	return cur
}

func (n unionNode) compile(c *compiler) frag {
	f := c.newFrag()
	for _, p := range n.parts {
		sub := p.compile(c)
		c.nfa.AddEps(f.in, sub.in)
		c.nfa.AddEps(sub.out, f.out)
	}
	return f
}

func (n starNode) compile(c *compiler) frag {
	f := c.newFrag()
	sub := n.sub.compile(c)
	c.nfa.AddEps(f.in, f.out)
	c.nfa.AddEps(f.in, sub.in)
	c.nfa.AddEps(sub.out, sub.in)
	c.nfa.AddEps(sub.out, f.out)
	return f
}

func (n plusNode) compile(c *compiler) frag {
	f := c.newFrag()
	sub := n.sub.compile(c)
	c.nfa.AddEps(f.in, sub.in)
	c.nfa.AddEps(sub.out, sub.in)
	c.nfa.AddEps(sub.out, f.out)
	return f
}

func (n optNode) compile(c *compiler) frag {
	f := c.newFrag()
	sub := n.sub.compile(c)
	c.nfa.AddEps(f.in, f.out)
	c.nfa.AddEps(f.in, sub.in)
	c.nfa.AddEps(sub.out, f.out)
	return f
}

// Compile compiles the expression to an ε-free, trimmed NFA over the
// alphabet's symbols.
func (e *Expr) Compile(a *alphabet.Alphabet) *automata.NFA[alphabet.Symbol] {
	c := &compiler{nfa: automata.NewNFA[alphabet.Symbol](0), alpha: a}
	f := e.root.compile(c)
	c.nfa.SetStart(f.in, true)
	c.nfa.SetAccept(f.out, true)
	return c.nfa.RemoveEps().Trim()
}

// CompileString parses and compiles in one step.
func CompileString(a *alphabet.Alphabet, src string) (*automata.NFA[alphabet.Symbol], error) {
	e, err := Parse(a, src)
	if err != nil {
		return nil, err
	}
	return e.Compile(a), nil
}

// MustCompileString is CompileString, panicking on error.
func MustCompileString(a *alphabet.Alphabet, src string) *automata.NFA[alphabet.Symbol] {
	return invariant.Must(CompileString(a, src))
}
