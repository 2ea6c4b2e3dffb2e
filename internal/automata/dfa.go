package automata

import "ecrpq/internal/invariant"

// DFA is a deterministic finite automaton over letters of type L. The
// transition function may be partial: a missing transition rejects.
type DFA[L comparable] struct {
	start  int
	accept []bool
	trans  []map[L]int
}

// AddState adds a state and returns its index.
func (d *DFA[L]) AddState(accept bool) int {
	d.accept = append(d.accept, accept)
	d.trans = append(d.trans, nil)
	return len(d.accept) - 1
}

// NumStates returns the number of states.
func (d *DFA[L]) NumStates() int { return len(d.accept) }

// SetTransition sets δ(p, l) = q, overwriting any previous target. Both
// endpoints must be states returned by AddState.
func (d *DFA[L]) SetTransition(p int, l L, q int) {
	invariant.Assert(p >= 0 && p < len(d.trans), "automata: SetTransition source outside the DFA")
	invariant.Assert(q >= 0 && q < len(d.accept), "automata: SetTransition target outside the DFA")
	if d.trans[p] == nil {
		d.trans[p] = make(map[L]int)
	}
	d.trans[p][l] = q
}

// Step returns δ(p, l) and whether it is defined. Out-of-range source
// states step nowhere rather than panicking: a caller-supplied bad state
// reference is a recoverable input error, not an internal invariant.
func (d *DFA[L]) Step(p int, l L) (int, bool) {
	if p < 0 || p >= len(d.trans) || d.trans[p] == nil {
		return -1, false
	}
	q, ok := d.trans[p][l]
	return q, ok
}

// Accepts reports whether the DFA accepts the word.
func (d *DFA[L]) Accepts(word []L) bool {
	q := d.start
	for _, l := range word {
		next, ok := d.Step(q, l)
		if !ok {
			return false
		}
		q = next
	}
	return d.accept[q]
}

// Letters returns the set of letters used by any transition.
func (d *DFA[L]) Letters() []L {
	seen := make(map[L]struct{})
	var out []L
	for _, m := range d.trans {
		for l := range m {
			if _, ok := seen[l]; !ok {
				seen[l] = struct{}{}
				out = append(out, l)
			}
		}
	}
	return out
}

// Clone returns a deep copy.
func (d *DFA[L]) Clone() *DFA[L] {
	out := &DFA[L]{start: d.start}
	out.accept = append([]bool(nil), d.accept...)
	out.trans = make([]map[L]int, len(d.trans))
	for p, m := range d.trans {
		if m == nil {
			continue
		}
		cm := make(map[L]int, len(m))
		for l, q := range m {
			cm[l] = q
		}
		out.trans[p] = cm
	}
	return out
}

// Complete returns a copy whose transition function is total over the given
// letters, adding a rejecting sink if necessary.
func (d *DFA[L]) Complete(letters []L) *DFA[L] {
	out := d.Clone()
	sink := -1
	ensureSink := func() int {
		if sink < 0 {
			sink = out.AddState(false)
		}
		return sink
	}
	n := out.NumStates()
	for p := 0; p < n; p++ {
		for _, l := range letters {
			if _, ok := out.Step(p, l); !ok {
				out.SetTransition(p, l, ensureSink())
			}
		}
	}
	if sink >= 0 {
		for _, l := range letters {
			out.SetTransition(sink, l, sink)
		}
	}
	return out
}

// Complement returns a DFA accepting exactly the words over `letters`
// rejected by d. The input is completed over `letters` first. Note: words
// containing letters outside the set are accepted by neither automaton.
func (d *DFA[L]) Complement(letters []L) *DFA[L] {
	out := d.Complete(letters)
	for q := range out.accept {
		out.accept[q] = !out.accept[q]
	}
	return out
}

// ToNFA converts the DFA to an equivalent NFA.
func (d *DFA[L]) ToNFA() *NFA[L] {
	a := NewNFA[L](d.NumStates())
	a.SetStart(d.start, true)
	for q, acc := range d.accept {
		a.SetAccept(q, acc)
	}
	for p, m := range d.trans {
		for l, q := range m {
			a.AddTransition(p, l, q)
		}
	}
	return a
}

// Minimize returns the minimal DFA for the same language, computed by
// Moore's partition-refinement algorithm over the trimmed, completed
// automaton. The letter set is taken from the DFA's own transitions.
func (d *DFA[L]) Minimize() *DFA[L] {
	letters := d.Letters()
	c := d.Complete(letters)
	// Restrict to reachable states.
	n := c.NumStates()
	reach := make([]bool, n)
	order := []int{c.start}
	reach[c.start] = true
	for i := 0; i < len(order); i++ {
		p := order[i]
		for _, q := range c.trans[p] {
			if !reach[q] {
				reach[q] = true
				order = append(order, q)
			}
		}
	}
	// Initial partition: accepting vs non-accepting (reachable only).
	part := make([]int, n) // state -> block id; -1 for unreachable
	for q := range part {
		part[q] = -1
	}
	for _, q := range order {
		if c.accept[q] {
			part[q] = 1
		} else {
			part[q] = 0
		}
	}
	numBlocks := 2
	// Sort letters deterministically by insertion order of Letters() — fine
	// since we only need a fixed order within this run.
	for {
		// Signature of a state: its block + blocks of its successors.
		sig := make(map[string]int)
		newPart := make([]int, n)
		for q := range newPart {
			newPart[q] = -1
		}
		next := 0
		buf := make([]byte, 0, 8*(len(letters)+1))
		for _, q := range order {
			buf = buf[:0]
			buf = appendInt(buf, part[q])
			for _, l := range letters {
				to, _ := c.Step(q, l)
				buf = appendInt(buf, part[to])
			}
			k := string(buf)
			b, ok := sig[k]
			if !ok {
				b = next
				next++
				sig[k] = b
			}
			newPart[q] = b
		}
		part = newPart
		if next == numBlocks {
			break
		}
		numBlocks = next
	}
	out := &DFA[L]{start: -1}
	for i := 0; i < numBlocks; i++ {
		out.AddState(false)
	}
	for _, q := range order {
		if c.accept[q] {
			out.accept[part[q]] = true
		}
		for l, to := range c.trans[q] {
			out.SetTransition(part[q], l, part[to])
		}
	}
	out.start = part[c.start]
	// Drop a sink block that is non-accepting and only self-loops, to keep
	// minimized automata partial and small (cosmetic; language unchanged).
	return out.trimSink()
}

// trimSink removes a non-accepting all-self-loop state (the completion sink)
// if present and not the start state.
func (d *DFA[L]) trimSink() *DFA[L] {
	n := d.NumStates()
	sink := -1
	for q := 0; q < n; q++ {
		if d.accept[q] || q == d.start {
			continue
		}
		onlySelf := true
		for _, to := range d.trans[q] {
			if to != q {
				onlySelf = false
				break
			}
		}
		if onlySelf {
			sink = q
			break
		}
	}
	if sink < 0 {
		return d
	}
	out := &DFA[L]{start: -1}
	remap := make([]int, n)
	for q := 0; q < n; q++ {
		if q == sink {
			remap[q] = -1
			continue
		}
		remap[q] = out.AddState(d.accept[q])
	}
	for p := 0; p < n; p++ {
		if p == sink {
			continue
		}
		for l, q := range d.trans[p] {
			if q != sink {
				out.SetTransition(remap[p], l, remap[q])
			}
		}
	}
	out.start = remap[d.start]
	return out
}

func appendInt(buf []byte, v int) []byte {
	u := uint64(int64(v)) // -1 encodes distinctly
	return append(buf, byte(u), byte(u>>8), byte(u>>16), byte(u>>24), byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}
