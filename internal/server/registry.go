package server

import (
	"sort"
	"sync"
	"time"

	"ecrpq/internal/graphdb"
	"ecrpq/internal/integrity"
	"ecrpq/internal/stats"
)

// dbEntry is one registered database. Entries are immutable once
// published: replacing a name installs a fresh entry with a new
// generation, so in-flight queries keep evaluating against the snapshot
// they resolved and the plan cache keys materializations by generation.
type dbEntry struct {
	name         string
	db           *graphdb.DB
	gen          uint64
	registeredAt time.Time
	// stats is the statistics catalog computed (or replicated) for this
	// registration, feeding the cost-based planner. nil means "no
	// statistics" — the planner falls back to the fixed auto rule, so a
	// failed or skipped stats computation never blocks registration.
	stats *stats.Catalog
	// digest is the content digest computed (or verified against the
	// owner's) at install time, bound to gen. The scrub re-verifies
	// memory against it and the anti-entropy sweep compares it across
	// holders. Gen==0 means "no digest" (pre-digest journal replay).
	digest integrity.Digest
}

// dbRegistry is the named-database table: concurrent register / replace /
// drop / lookup under an RWMutex, with a monotonically increasing
// generation counter shared by all names (a generation therefore
// identifies one registration event globally, which is what plan-cache
// invalidation wants).
type dbRegistry struct {
	mu      sync.RWMutex
	entries map[string]*dbEntry
	nextGen uint64
}

func newDBRegistry() *dbRegistry {
	return &dbRegistry{entries: make(map[string]*dbEntry)}
}

// register installs db under name, replacing any existing entry. It
// returns the new entry and, when a previous entry was replaced, its
// generation (for cache invalidation).
func (r *dbRegistry) register(name string, db *graphdb.DB) (entry *dbEntry, replacedGen uint64, replaced bool) {
	gen := r.allocGen()
	return r.installWithGen(name, db, gen, time.Now(), nil, integrity.Compute(db, gen))
}

// allocGen reserves the next generation. Splitting allocation from
// installation lets the persistence layer write the journal record (which
// needs the generation) before the entry becomes visible to queries, so
// memory never claims a registration that disk could lose.
func (r *dbRegistry) allocGen() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextGen++
	return r.nextGen
}

// installWithGen installs db under name with a pre-allocated (or
// journal-replayed) generation. The counter is bumped to at least gen so
// generations stay globally monotonic across restarts — which is what
// keeps plan-cache invalidation correct after a reload. The database's
// forward layout is built here, before the entry is visible, so that no
// request ever builds it.
func (r *dbRegistry) installWithGen(name string, db *graphdb.DB, gen uint64, at time.Time, cat *stats.Catalog, dg integrity.Digest) (entry *dbEntry, replacedGen uint64, replaced bool) {
	db.Forward()
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.entries[name]; ok {
		replacedGen, replaced = old.gen, true
	}
	if gen > r.nextGen {
		r.nextGen = gen
	}
	entry = &dbEntry{name: name, db: db, gen: gen, registeredAt: at, stats: cat, digest: dg}
	r.entries[name] = entry
	return entry, replacedGen, replaced
}

// bumpGen raises the generation floor (to a journal's MaxGen at restore
// time) so generations of dropped pre-crash registrations are never
// reissued.
func (r *dbRegistry) bumpGen(floor uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if floor > r.nextGen {
		r.nextGen = floor
	}
}

// get returns the current entry for name.
func (r *dbRegistry) get(name string) (*dbEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// drop removes name, returning the dropped generation.
func (r *dbRegistry) drop(name string) (gen uint64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return 0, false
	}
	delete(r.entries, name)
	return e.gen, true
}

// list returns the current entries sorted by name.
func (r *dbRegistry) list() []*dbEntry {
	r.mu.RLock()
	out := make([]*dbEntry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// size returns the number of registered databases.
func (r *dbRegistry) size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}
