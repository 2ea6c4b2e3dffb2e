//go:build !faultinject

package faultinject

// Enabled reports whether any injection configuration is active (never, in
// production builds).
func Enabled() bool { return false }

// Enable is a no-op without the faultinject build tag.
func Enable(seed uint64, rate float64) {}

// EnableSite is a no-op without the faultinject build tag.
func EnableSite(site string, mode Mode, rate float64) {}

// Disable is a no-op without the faultinject build tag.
func Disable() {}

// Point reports whether a fault fires at the named site. Without the
// faultinject build tag it always returns nil and inlines to nothing.
func Point(site string) error { return nil }

// Stats returns per-site counters (always nil in production builds).
func Stats() map[string]SiteStats { return nil }
