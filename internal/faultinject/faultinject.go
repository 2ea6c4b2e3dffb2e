// Package faultinject provides deterministic, seed-driven fault injection
// points for chaos testing the ecrpqd stack. A fault site is a string name
// ("persist.journal.append", "plancache.get", "core.budget", ...) checked
// with Point at the place where the corresponding failure would naturally
// occur; the configuration decides, reproducibly, which checks inject a
// fault and what kind (error, delay, or panic through the internal/invariant
// gateway).
//
// Cluster mode adds network-shaped sites: "cluster.partition" guards
// every inter-node call (health probes, read forwards, replication
// pushes, catch-up pulls) so enabling it simulates a full partition;
// "cluster.replicate.send" and "cluster.replicate.apply" fault the two
// halves of journal shipping independently (replication lag vs a
// crashed apply); and "cluster.catchup" suppresses the pull-based
// repair loop so lag persists until the site is disabled. Every background
// loop also has a site named after it, "loop.<name>" (scrub, catchup,
// anti_entropy, probe): while it fires the loop skips its passes.
//
// The integrity subsystem adds corruption-shaped sites, where an
// injected "error" is interpreted as data damage rather than a failure
// return: "integrity.bitflip" makes the background scrub see a flipped
// bit in the on-disk snapshot (at-rest rot), "integrity.digest" makes a
// digest verification disagree (a divergent replica or rotted heap),
// and "persist.sidecar.rename" crashes a sidecar write between the
// temp-file write and its rename (the orphan is garbage-collected at
// the next Open).
//
// The package compiles in two modes:
//
//   - Default ("production") builds: Point is a constant-nil function and
//     every configuration call is a no-op, so instrumented call sites cost a
//     single inlinable call returning nil. No state, no atomics, no branches
//     on the hot path.
//   - Builds with -tags faultinject: Point consults the active
//     configuration. Decisions are a pure function of (seed, site, per-site
//     check counter), so a chaos run is reproducible from its seed alone and
//     stays deterministic per site under concurrency (only the interleaving
//     varies, never the per-site fault schedule).
//
// In faultinject builds the environment variables ECRPQ_FAULT_SEED and
// ECRPQ_FAULT_RATE activate all-site error injection at startup, so a
// chaos-built ecrpqd binary can be faulted without code changes.
package faultinject

import "errors"

// Mode selects what an injected fault does at a site.
type Mode int

const (
	// ModeError makes Point return an error wrapping ErrInjected.
	ModeError Mode = iota
	// ModeDelay makes Point sleep 1–5ms (deterministic per check) and
	// return nil, simulating slow I/O and widening race windows.
	ModeDelay
	// ModePanic makes Point panic through invariant.Unreachable, testing
	// recovery paths. Only meaningful at sites whose goroutine has a
	// recover-based harness.
	ModePanic
)

// ErrInjected is the sentinel wrapped by every injected error; callers and
// tests match it with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// SiteStats counts activity at one site.
type SiteStats struct {
	// Checks is the number of Point calls observed at the site.
	Checks uint64
	// Injected is how many of those checks injected a fault.
	Injected uint64
}
