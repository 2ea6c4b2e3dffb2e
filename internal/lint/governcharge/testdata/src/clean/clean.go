// Package clean allocates in loops but every function is accounted: it
// charges a govern meter directly, reaches a charge through a callee, or
// carries the //ecrpq:charged directive.
package clean

import "ecrpq/internal/govern"

// chargedDirect draws from the meter alongside each growth.
func chargedDirect(m *govern.Meter, n int) ([]int, error) {
	var out []int
	for i := 0; i < n; i++ {
		if err := m.Grow(8); err != nil {
			return nil, err
		}
		out = append(out, i)
	}
	return out, nil
}

// chargeRow is the charging helper chargedViaCallee relies on.
func chargeRow(m *govern.Meter) error { return m.Grow(16) }

// chargedViaCallee charges through the call graph, not directly.
func chargedViaCallee(m *govern.Meter, n int) ([]int, error) {
	var out []int
	for i := 0; i < n; i++ {
		if err := chargeRow(m); err != nil {
			return nil, err
		}
		out = append(out, i)
	}
	return out, nil
}

// annotated is exempt by directive.
//
//ecrpq:charged fixture: the caller accounts for these bytes
func annotated(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// notInLoop allocates once, outside any loop — not a hot path.
func notInLoop(n int) []int {
	out := make([]int, n)
	return out
}
