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
	// quar is non-nil while this copy is quarantined: reads against it
	// answer a typed 503 CORRUPT_LOCAL (cluster nodes fail them over to a
	// healthy holder) and catch-up never serves it. It lives on the entry,
	// so whatever replaces or removes the entry supersedes it, and a finding
	// about one generation cannot land on another.
	quar *quarRecord
}

// quarRecord is why a copy was quarantined, and whether a scrub pass that
// finds everything verifying may lift it. Scrub and restore quarantines are
// locally re-verifiable — their cause is a digest/structural check the scrub
// itself re-runs, so "everything now verifies" genuinely contradicts the
// finding. An anti-entropy quarantine records divergence from the ring
// owner, which no amount of local verification can rule out (the divergent
// content is self-consistent by construction) — only a verified re-install
// (repair pull, replacement registration, or drop) ends it.
type quarRecord struct {
	reason        string
	scrubLiftable bool
}

// dbRegistry is the named-database table: concurrent register / replace /
// drop / lookup under an RWMutex, with a monotonically increasing
// generation counter shared by all names (a generation therefore
// identifies one registration event globally, which is what plan-cache
// invalidation wants).
type dbRegistry struct {
	mu      sync.RWMutex
	entries map[string]*dbEntry
	// names maps a generation to its database name from the moment it is
	// installed until what the plan cache built over it has been
	// invalidated, so the cache's eviction hook (which only sees keys) can
	// attribute generation-keyed evictions.
	names   map[uint64]string
	nextGen uint64
	// invalidate drops the plan-cache entries keyed by a generation. The
	// registry calls it for every generation that leaves the table, so no
	// install or removal can forget to.
	invalidate func(gen uint64) int
}

func newDBRegistry(invalidate func(gen uint64) int) *dbRegistry {
	return &dbRegistry{entries: make(map[string]*dbEntry), names: make(map[uint64]string), invalidate: invalidate}
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

// install publishes e under its name and returns the entry it replaced, if
// any, whose materializations are invalidated. The counter is bumped to at
// least e.gen so generations stay globally monotonic across restarts — which
// is what keeps plan-cache invalidation correct after a reload. The
// database's forward layout is built here, before the entry is visible, so
// that no request ever builds it.
func (r *dbRegistry) install(e *dbEntry) (old *dbEntry) {
	e.db.Forward()
	r.mu.Lock()
	old = r.entries[e.name]
	if e.gen > r.nextGen {
		r.nextGen = e.gen
	}
	r.entries[e.name] = e
	r.names[e.gen] = e.name
	r.mu.Unlock()
	if old != nil {
		r.retire(old.gen, e.gen)
	}
	return old
}

// remove deletes name and returns the removed entry, nil when there was
// none; its materializations are invalidated.
func (r *dbRegistry) remove(name string) (old *dbEntry) {
	r.mu.Lock()
	old = r.entries[name]
	delete(r.entries, name)
	r.mu.Unlock()
	if old != nil {
		r.retire(old.gen, 0)
	}
	return old
}

// retire invalidates what the plan cache built over a generation that left
// the table, then forgets its name: in that order, so the evictions are
// still attributed to the database. On a same-generation repair (successor
// == gen) the number lives on, so the entries keyed by it — possibly built
// from corrupt data — go while the note stays.
func (r *dbRegistry) retire(gen, successor uint64) {
	r.invalidate(gen)
	if gen != successor {
		r.mu.Lock()
		delete(r.names, gen)
		r.mu.Unlock()
	}
}

// nameOf returns the database a generation belongs (or, until its cache
// entries are gone, belonged) to.
func (r *dbRegistry) nameOf(gen uint64) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	name, ok := r.names[gen]
	return name, ok
}

// setQuarantine quarantines (q != nil) or, for a scrub that re-verified the
// copy, releases (q == nil) the live entry of name — only if that entry is
// still generation gen, so a finding about a replaced generation is dropped.
// The first record sticks (it names the original finding; later ones are
// usually consequences), and only a scrubLiftable record can be released:
// everything else ends when the entry is replaced or removed. Entries are
// immutable, so the change is a copy swapped in under the lock. Reports
// whether the state changed.
func (r *dbRegistry) setQuarantine(name string, gen uint64, q *quarRecord) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.entries[name]
	switch {
	case !ok || cur.gen != gen:
		return false
	case q != nil && cur.quar != nil:
		return false
	case q == nil && (cur.quar == nil || !cur.quar.scrubLiftable):
		return false
	}
	e := *cur
	e.quar = q
	r.entries[name] = &e
	return true
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
