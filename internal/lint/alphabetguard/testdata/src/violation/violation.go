// Package violation exercises every alphabetguard diagnostic.
package violation

import "ecrpq/internal/alphabet"

func rawConversions() alphabet.Symbol {
	s := alphabet.Symbol(3)   // want `raw literal converted to alphabet.Symbol`
	t := alphabet.Symbol(-2)  // want `raw literal converted to alphabet.Symbol`
	u := alphabet.Symbol('a') // want `raw literal converted to alphabet.Symbol`
	_ = []alphabet.Symbol{t, u}
	return s
}

func runeLiterals(s alphabet.Symbol) bool {
	var label alphabet.Symbol = 'x' // want `rune literal used as alphabet.Symbol`
	if s == 'b' {                   // want `rune literal used as alphabet.Symbol`
		return true
	}
	return label == s
}

func asArgument() bool {
	a := alphabet.MustNew("a", "b")
	return a.Contains('a') // want `rune literal used as alphabet.Symbol`
}
