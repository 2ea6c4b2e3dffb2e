//go:build faultinject

package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"ecrpq/internal/invariant"
)

// siteCfg is the injection policy for one site (or the all-site default).
type siteCfg struct {
	mode Mode
	rate float64 // probability in [0,1] that a check injects
}

// registry is the global injection state. A single mutex is fine: the
// package exists only in chaos builds, where measuring contention is not
// the point.
var registry struct {
	mu       sync.Mutex
	seed     uint64
	def      *siteCfg           // applies to every site without an explicit entry
	sites    map[string]siteCfg // explicit per-site policies
	counters map[string]uint64  // per-site check counters (the determinism clock)
	stats    map[string]SiteStats
}

func init() {
	registry.sites = make(map[string]siteCfg)
	registry.counters = make(map[string]uint64)
	registry.stats = make(map[string]SiteStats)
	// Environment activation, so a chaos-built binary can be faulted from
	// the outside: ECRPQ_FAULT_RATE=0.1 ECRPQ_FAULT_SEED=42 ecrpqd ...
	if rs := os.Getenv("ECRPQ_FAULT_RATE"); rs != "" {
		rate, err := strconv.ParseFloat(rs, 64)
		if err == nil && rate > 0 {
			var seed uint64 = 1
			if ss := os.Getenv("ECRPQ_FAULT_SEED"); ss != "" {
				if v, err := strconv.ParseUint(ss, 10, 64); err == nil {
					seed = v
				}
			}
			Enable(seed, rate)
		}
	}
}

// Enabled reports whether any injection configuration is active.
func Enabled() bool {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return registry.def != nil || len(registry.sites) > 0
}

// Enable turns on error-mode injection at every site with the given rate,
// replacing any previous all-site default. Per-site policies set with
// EnableSite take precedence.
func Enable(seed uint64, rate float64) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	registry.seed = seed
	registry.def = &siteCfg{mode: ModeError, rate: rate}
}

// EnableSite sets the policy for one site, overriding the all-site default
// there.
func EnableSite(site string, mode Mode, rate float64) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	registry.sites[site] = siteCfg{mode: mode, rate: rate}
}

// Disable clears all configuration and counters (the next Enable starts a
// fresh deterministic schedule).
func Disable() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	registry.def = nil
	registry.sites = make(map[string]siteCfg)
	registry.counters = make(map[string]uint64)
	registry.stats = make(map[string]SiteStats)
}

// Stats snapshots the per-site counters.
func Stats() map[string]SiteStats {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make(map[string]SiteStats, len(registry.stats))
	for k, v := range registry.stats {
		out[k] = v
	}
	return out
}

// splitmix64 is the 64-bit finalizer from SplitMix64: a bijective mixer
// good enough to turn (seed, site, counter) into an iid-looking stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString is FNV-1a, inlined to avoid a hash.Hash allocation per check.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Point reports whether a fault fires at the named site: nil when no fault
// is injected, an error wrapping ErrInjected in ModeError. ModeDelay
// sleeps and returns nil; ModePanic panics through the invariant gateway.
// The decision is a pure function of (seed, site, how many times this site
// has been checked), so runs with the same seed inject the same per-site
// schedule.
func Point(site string) error {
	registry.mu.Lock()
	var cfg siteCfg
	if c, ok := registry.sites[site]; ok {
		cfg = c
	} else if registry.def != nil {
		cfg = *registry.def
	} else {
		registry.mu.Unlock()
		return nil
	}
	n := registry.counters[site]
	registry.counters[site] = n + 1
	x := splitmix64(registry.seed ^ splitmix64(hashString(site)) ^ splitmix64(n))
	inject := float64(x%1_000_000)/1_000_000 < cfg.rate
	st := registry.stats[site]
	st.Checks++
	if inject {
		st.Injected++
	}
	registry.stats[site] = st
	registry.mu.Unlock()

	if !inject {
		return nil
	}
	switch cfg.mode {
	case ModeDelay:
		time.Sleep(time.Duration(1+x%5) * time.Millisecond)
		return nil
	case ModePanic:
		invariant.Unreachable(fmt.Sprintf("faultinject: injected panic at %s (check %d)", site, n))
		return nil // unreachable
	default:
		return fmt.Errorf("%w at %s (check %d)", ErrInjected, site, n)
	}
}
