package core

import (
	"fmt"
	"os"
	"testing"

	"ecrpq/internal/query"
)

// TestMain runs the package's tests, then checks that none of them wrote to
// an automaton the query package's relation table shares between queries:
// every relation the differential suites parsed and evaluated through
// Builder.Lang and the built-ins must still format to the fingerprint it was
// interned with.
func TestMain(m *testing.M) {
	code := m.Run()
	if n, err := query.CheckInterned(); err != nil {
		fmt.Fprintf(os.Stderr, "after the core suites: %v\n", err)
		code = 1
	} else if testing.Verbose() {
		fmt.Fprintf(os.Stderr, "after the core suites: %d interned relations format as they were interned\n", n)
	}
	os.Exit(code)
}
