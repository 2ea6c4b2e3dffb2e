package twolevel

// EvalClass names a combined-complexity regime of Theorem 3.2.
type EvalClass string

// ParamClass names a parameterized-complexity regime of Theorem 3.1.
type ParamClass string

// Complexity regimes of the two characterization theorems.
const (
	EvalPTime  EvalClass = "polynomial time"                    // Thm 3.2(3)
	EvalNP     EvalClass = "NP (and not PTIME unless W[1]=FPT)" // Thm 3.2(2)
	EvalPSpace EvalClass = "PSPACE-complete"                    // Thm 3.2(1)

	ParamFPT ParamClass = "FPT"           // Thm 3.1(3)
	ParamW1  ParamClass = "W[1]-complete" // Thm 3.1(2)
	ParamXNL ParamClass = "XNL-complete"  // Thm 3.1(1)
)

// Classify applies the case analysis of Theorems 3.1 and 3.2 to a class of
// 2L graphs described by which measures are bounded. (The theorems speak of
// classes; a single query always has finite measures, so classification is
// meaningful for parameterized families — the booleans say whether each
// measure stays bounded as the family grows.)
func Classify(ccVertexBounded, ccHedgeBounded, twBounded bool) (EvalClass, ParamClass) {
	var ec EvalClass
	switch {
	case !ccVertexBounded || !ccHedgeBounded:
		ec = EvalPSpace // Thm 3.2(1)
	case !twBounded:
		ec = EvalNP // Thm 3.2(2)
	default:
		ec = EvalPTime // Thm 3.2(3)
	}
	var pc ParamClass
	switch {
	case !ccVertexBounded:
		pc = ParamXNL // Thm 3.1(1)
	case !twBounded:
		pc = ParamW1 // Thm 3.1(2)
	default:
		pc = ParamFPT // Thm 3.1(3)
	}
	return ec, pc
}
