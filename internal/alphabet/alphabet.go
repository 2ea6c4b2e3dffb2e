// Package alphabet provides finite alphabets, words over them, and the
// convolution operation that underpins synchronous (a.k.a. regular,
// automatic) word relations.
//
// A Symbol is a small integer index into an Alphabet. The distinguished
// value Pad represents the padding symbol ⊥ used when convolving words of
// different lengths (Section 2 of the paper, "Regular languages and
// synchronous relations").
package alphabet

import (
	"fmt"
	"strings"

	"ecrpq/internal/invariant"
)

// Symbol identifies a letter of an Alphabet. Valid symbols are non-negative;
// Pad is the reserved padding symbol ⊥ and is never a member of an Alphabet.
type Symbol int32

// Pad is the padding symbol ⊥ used in convolutions. It is not part of any
// alphabet; it only appears in convolution letters.
const Pad Symbol = -1

// Unset is the "no symbol chosen yet" sentinel used by joint-letter
// search scratch buffers (product constructions fill tracks
// incrementally). Like Pad it is never a member of an Alphabet, and it is
// distinct from Pad so a track can be explicitly padded without looking
// undecided.
const Unset Symbol = -2

// Alphabet is a finite, ordered set of named symbols. The zero value is an
// empty alphabet ready for use via Add.
type Alphabet struct {
	names []string
	index map[string]Symbol
}

// New returns an alphabet containing the given symbol names, in order.
// Duplicate names are rejected.
func New(names ...string) (*Alphabet, error) {
	a := &Alphabet{index: make(map[string]Symbol, len(names))}
	for _, n := range names {
		if _, err := a.Add(n); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// MustNew is New, panicking on error. Intended for tests and literals.
func MustNew(names ...string) *Alphabet {
	return invariant.Must(New(names...))
}

// Lower returns the alphabet {a, b, c, ...} of the first n lowercase Latin
// letters. It panics unless 1 <= n <= 26.
func Lower(n int) *Alphabet {
	invariant.Assertf(n >= 1 && n <= 26, "alphabet.Lower: n=%d out of range [1,26]", n)
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	return MustNew(names...)
}

// Add inserts a new symbol name and returns its Symbol. Empty names, names
// containing whitespace, and duplicates are rejected.
func (a *Alphabet) Add(name string) (Symbol, error) {
	if name == "" {
		return Pad, fmt.Errorf("alphabet: empty symbol name")
	}
	if strings.ContainsAny(name, " \t\n\r") {
		return Pad, fmt.Errorf("alphabet: symbol name %q contains whitespace", name)
	}
	if a.index == nil {
		a.index = make(map[string]Symbol)
	}
	if _, ok := a.index[name]; ok {
		return Pad, fmt.Errorf("alphabet: duplicate symbol %q", name)
	}
	s := Symbol(len(a.names))
	a.names = append(a.names, name)
	a.index[name] = s
	return s, nil
}

// Size returns the number of symbols in the alphabet.
func (a *Alphabet) Size() int { return len(a.names) }

// Symbols returns all symbols of the alphabet in order.
func (a *Alphabet) Symbols() []Symbol {
	out := make([]Symbol, len(a.names))
	for i := range out {
		out[i] = Symbol(i)
	}
	return out
}

// Contains reports whether s is a symbol of this alphabet.
func (a *Alphabet) Contains(s Symbol) bool {
	return s >= 0 && int(s) < len(a.names)
}

// Lookup returns the symbol with the given name.
func (a *Alphabet) Lookup(name string) (Symbol, bool) {
	s, ok := a.index[name]
	return s, ok
}

// Name returns the name of symbol s, or "⊥" for Pad. Unknown symbols render
// as "?<n>".
func (a *Alphabet) Name(s Symbol) string {
	if s == Pad {
		return "⊥"
	}
	if !a.Contains(s) {
		return fmt.Sprintf("?%d", int(s))
	}
	return a.names[s]
}

// Names returns the symbol names in order.
func (a *Alphabet) Names() []string {
	out := make([]string, len(a.names))
	copy(out, a.names)
	return out
}

// String renders the alphabet as {a, b, c}.
func (a *Alphabet) String() string {
	return "{" + strings.Join(a.names, ", ") + "}"
}

// Extend returns a new alphabet containing all symbols of a followed by the
// extra names. The original alphabet is not modified, and symbols of a keep
// their values in the extension.
func (a *Alphabet) Extend(extra ...string) (*Alphabet, error) {
	b := &Alphabet{
		names: append([]string(nil), a.names...),
		index: make(map[string]Symbol, len(a.names)+len(extra)),
	}
	for n, s := range a.index {
		b.index[n] = s
	}
	for _, n := range extra {
		if _, err := b.Add(n); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Word is a finite word over an alphabet: a sequence of symbols. The empty
// word is represented by an empty (or nil) slice.
type Word []Symbol

// ParseWord parses a word from text. Single-character symbol names may be
// written juxtaposed ("abba"); otherwise symbols are whitespace- or
// dot-separated ("load.store.load"). The empty string and "ε" denote the
// empty word.
func ParseWord(a *Alphabet, text string) (Word, error) {
	text = strings.TrimSpace(text)
	if text == "" || text == "ε" {
		return Word{}, nil
	}
	if strings.ContainsAny(text, " \t.") {
		fields := strings.FieldsFunc(text, func(r rune) bool {
			return r == ' ' || r == '\t' || r == '.'
		})
		w := make(Word, 0, len(fields))
		for _, f := range fields {
			s, ok := a.Lookup(f)
			if !ok {
				return nil, fmt.Errorf("alphabet: unknown symbol %q in word %q", f, text)
			}
			w = append(w, s)
		}
		return w, nil
	}
	w := make(Word, 0, len(text))
	for _, r := range text {
		s, ok := a.Lookup(string(r))
		if !ok {
			return nil, fmt.Errorf("alphabet: unknown symbol %q in word %q", string(r), text)
		}
		w = append(w, s)
	}
	return w, nil
}

// MustParseWord is ParseWord, panicking on error.
func MustParseWord(a *Alphabet, text string) Word {
	return invariant.Must(ParseWord(a, text))
}

// Format renders the word using the alphabet's symbol names. Single-character
// names are juxtaposed; otherwise names are dot-separated. The empty word
// renders as "ε".
func (w Word) Format(a *Alphabet) string {
	if len(w) == 0 {
		return "ε"
	}
	parts := make([]string, len(w))
	multi := false
	for i, s := range w {
		parts[i] = a.Name(s)
		if len(parts[i]) != 1 {
			multi = true
		}
	}
	if multi {
		return strings.Join(parts, ".")
	}
	return strings.Join(parts, "")
}

// Equal reports whether two words are identical.
func (w Word) Equal(v Word) bool {
	if len(w) != len(v) {
		return false
	}
	for i := range w {
		if w[i] != v[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the word.
func (w Word) Clone() Word {
	if w == nil {
		return nil
	}
	out := make(Word, len(w))
	copy(out, w)
	return out
}

// Valid reports whether every symbol of the word belongs to alphabet a.
func (w Word) Valid(a *Alphabet) bool {
	for _, s := range w {
		if !a.Contains(s) {
			return false
		}
	}
	return true
}

// Tuple is a convolution letter: one symbol (or Pad) per track.
type Tuple []Symbol

// Convolve computes the convolution w1 ⊗ ... ⊗ wk of the given words: the
// shortest sequence of Tuples whose i-th projection is words[i] followed by
// padding. Convolving zero words yields nil. The convolution of all-empty
// words is the empty sequence.
func Convolve(words ...Word) []Tuple {
	if len(words) == 0 {
		return nil
	}
	maxLen := 0
	for _, w := range words {
		if len(w) > maxLen {
			maxLen = len(w)
		}
	}
	out := make([]Tuple, maxLen)
	for pos := 0; pos < maxLen; pos++ {
		t := make(Tuple, len(words))
		for i, w := range words {
			if pos < len(w) {
				t[i] = w[pos]
			} else {
				t[i] = Pad
			}
		}
		out[pos] = t
	}
	return out
}

// Deconvolve is the inverse of Convolve: it splits a sequence of k-track
// Tuples back into k words, validating that padding is suffix-only on every
// track (i.e. the sequence is a valid convolution).
func Deconvolve(k int, tuples []Tuple) ([]Word, error) {
	words := make([]Word, k)
	done := make([]bool, k)
	for i := range words {
		words[i] = Word{}
	}
	for pos, t := range tuples {
		if len(t) != k {
			return nil, fmt.Errorf("alphabet: tuple at position %d has %d tracks, want %d", pos, len(t), k)
		}
		allPad := true
		for i, s := range t {
			if s == Pad {
				done[i] = true
				continue
			}
			allPad = false
			if done[i] {
				return nil, fmt.Errorf("alphabet: track %d resumes after padding at position %d", i, pos)
			}
			words[i] = append(words[i], s)
		}
		if allPad {
			return nil, fmt.Errorf("alphabet: all-padding tuple at position %d", pos)
		}
	}
	return words, nil
}

// Key packs the tuple into a compact string usable as a map key. Two tuples
// have the same key iff they are equal.
func (t Tuple) Key() string {
	var b strings.Builder
	b.Grow(4 * len(t))
	for _, s := range t {
		u := uint32(int32(s)) // Pad (-1) becomes 0xFFFFFFFF
		b.WriteByte(byte(u))
		b.WriteByte(byte(u >> 8))
		b.WriteByte(byte(u >> 16))
		b.WriteByte(byte(u >> 24))
	}
	return b.String()
}

// TupleFromKey reverses Tuple.Key.
func TupleFromKey(key string) (Tuple, error) {
	if len(key)%4 != 0 {
		return nil, fmt.Errorf("alphabet: malformed tuple key of length %d", len(key))
	}
	t := make(Tuple, len(key)/4)
	for i := range t {
		u := uint32(key[4*i]) | uint32(key[4*i+1])<<8 | uint32(key[4*i+2])<<16 | uint32(key[4*i+3])<<24
		t[i] = Symbol(int32(u))
	}
	return t, nil
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// AllTuples enumerates, in a deterministic order, every k-track tuple over
// the alphabet's symbols plus Pad, excluding the all-Pad tuple. The count is
// (|A|+1)^k - 1; callers should keep k small.
func AllTuples(a *Alphabet, k int) []Tuple {
	syms := append([]Symbol{Pad}, a.Symbols()...)
	var out []Tuple
	t := make(Tuple, k)
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			allPad := true
			for _, s := range t {
				if s != Pad {
					allPad = false
					break
				}
			}
			if !allPad {
				out = append(out, t.Clone())
			}
			return
		}
		for _, s := range syms {
			t[i] = s
			rec(i + 1)
		}
	}
	rec(0)
	return out
}
