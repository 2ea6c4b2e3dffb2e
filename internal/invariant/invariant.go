// Package invariant is the single sanctioned gateway to panicking in
// library code. The panicfree rule of the root package's TestArchitecture
// forbids the panic builtin (and log.Fatal*) everywhere under internal/ and
// in the root package except inside this package, so every irrecoverable condition is
// forced to state explicitly that it is an invariant violation — with a
// message — rather than an incidental panic.
//
// Use Assert/Assertf for conditions that the surrounding code guarantees
// by construction ("letters produced by FromNFA decode cleanly"), NoError
// and Must for Must-style convenience wrappers over error-returning
// constructors, and Unreachable for impossible branches. Recoverable
// input errors (malformed regexes, unknown symbols, bad state references
// supplied by a caller) must be returned as errors instead.
package invariant

import "fmt"

// Violation is the panic payload raised by this package. It implements
// error so recover-based harnesses (worker pools, fuzz drivers) can
// surface it as a regular error.
type Violation struct {
	// Msg describes the violated invariant.
	Msg string
	// Err is the underlying error for NoError/Must violations, if any.
	Err error
}

// Error implements the error interface.
func (v *Violation) Error() string {
	if v.Err != nil {
		return "invariant violated: " + v.Msg + ": " + v.Err.Error()
	}
	return "invariant violated: " + v.Msg
}

// Unwrap exposes the underlying error, if any.
func (v *Violation) Unwrap() error { return v.Err }

// Assert panics with a Violation carrying msg unless cond holds. The
// message is a plain string so hot paths pay only a comparison when the
// invariant holds.
func Assert(cond bool, msg string) {
	if !cond {
		panic(&Violation{Msg: msg})
	}
}

// Assertf is Assert with Printf-style message formatting. Prefer Assert
// on hot paths: Assertf's variadic arguments may allocate even when the
// condition holds.
func Assertf(cond bool, format string, args ...any) {
	if !cond {
		panic(&Violation{Msg: fmt.Sprintf(format, args...)})
	}
}

// NoError panics with a Violation if err is non-nil. context names the
// operation whose error is irrecoverable (typically a Must-style wrapper).
func NoError(err error, context string) {
	if err != nil {
		panic(&Violation{Msg: context, Err: err})
	}
}

// Must returns v after asserting err is nil; it is the standard body of a
// Must-style constructor wrapper:
//
//	func MustNew(names ...string) *Alphabet {
//		return invariant.Must(New(names...))
//	}
func Must[T any](v T, err error) T {
	if err != nil {
		panic(&Violation{Msg: "Must called with error", Err: err})
	}
	return v
}

// Unreachable marks a branch the surrounding logic rules out. It always
// panics with a Violation.
func Unreachable(msg string) {
	panic(&Violation{Msg: "unreachable: " + msg})
}
