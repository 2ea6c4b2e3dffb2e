// Package plancache is a sharded, byte-budgeted LRU cache for compiled
// query plans and their per-database materializations. The query server
// keys entries by the canonical query hash (query.Hash), the resolved
// evaluation strategy, and the database generation, so that:
//
//   - a db-independent compiled plan (core.Prepared: relation NFAs merged
//     per Lemma 4.1, measures, strategy resolution) is shared by every
//     database the query runs against (DBGen = 0), and
//   - a db-dependent Lemma 4.3 materialization (core.Materialization) is
//     reused only while its database generation is current, and becomes
//     unreachable — and eventually evicted — the moment the database is
//     replaced.
//
// Each shard is an independent mutex + LRU list with its own slice of the
// byte budget, so concurrent queries for different keys rarely contend.
// Values are opaque to the cache; callers supply a size estimate at Put
// time and the shard evicts from the cold end until it fits its budget.
package plancache

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"ecrpq/internal/faultinject"
)

// Key identifies one cached value.
type Key struct {
	// QueryHash is the canonical query identity (query.Hash hex digest) —
	// or, under the server's "text" pseudo-strategy, the request text
	// itself, which is what maps to that identity.
	QueryHash string
	// Strategy is the resolved evaluation strategy ("generic",
	// "reduction"), part of the key because options change the plan. The
	// server also files its memos here under pseudo-strategies: "auto" (the
	// planner's decision for a hash and generation) and "text" (the parsed
	// query and hash of a request text, generation 0).
	Strategy string
	// DBGen is the database generation the value was built against; 0
	// marks db-independent entries (compiled plans).
	DBGen uint64
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64 // entries dropped to fit the byte budget (or ledger)
	Rejected  uint64 // Puts refused: entry exceeds a shard budget, or the ledger denied
	Entries   int
	Bytes     int64
	Budget    int64
}

// Ledger accounts the cache's resident bytes against a budget shared with
// other consumers — the query server wires in its memory broker so cached
// plans and live evaluations draw from one pool. A nil ledger means the
// cache is bounded only by its own byte budget.
type Ledger interface {
	// TryAcquire claims n bytes, reporting false when the budget is
	// exhausted. Must never block.
	TryAcquire(n int64) bool
	// Release returns n previously acquired bytes.
	Release(n int64)
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

const numShards = 16

// Cache is the sharded LRU. The zero value is not usable; call New.
type Cache struct {
	seed   maphash.Seed
	shards [numShards]shard

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	rejected  atomic.Uint64

	// evictionHook, when set, observes the key of every budget- or
	// ledger-driven eviction (not replaces, deletes, or generation
	// invalidations — those are caller-initiated removals, not pressure).
	// Invoked outside the shard mutex; see SetEvictionHook.
	evictionHook atomic.Pointer[func(Key)]
}

// entry is one cached value in a shard's intrusive LRU list.
type entry struct {
	key        Key
	val        any
	size       int64
	prev, next *entry // list neighbours; head side is most recent
}

type shard struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ledger Ledger // optional shared byte ledger; nil = unaccounted
	items  map[Key]*entry
	head   *entry // most recently used
	tail   *entry // least recently used
}

// DefaultBudget is the total byte budget used when New is given a
// non-positive budget: 256 MiB, a plan-and-materialization working set
// comfortably below typical container limits.
const DefaultBudget = 256 << 20

// New returns a cache with the given total byte budget, split evenly
// across shards.
func New(budgetBytes int64) *Cache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudget
	}
	c := &Cache{seed: maphash.MakeSeed()}
	per := budgetBytes / numShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].budget = per
		c.shards[i].items = make(map[Key]*entry)
	}
	return c
}

// SetLedger charges every resident byte to l from now on: Put acquires
// before inserting (evicting cold entries from the shard to make room,
// and rejecting the insert when even that is not enough) and every
// removal releases. Call once, before the cache starts taking traffic —
// entries inserted earlier are not retroactively charged.
func (c *Cache) SetLedger(l Ledger) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.ledger = l
		s.mu.Unlock()
	}
}

// SetEvictionHook registers fn to be called with the key of every entry
// evicted under byte-budget or ledger pressure, or dropped by
// InvalidateGeneration. The query server uses it
// to attribute evictions to databases (by generation) for the per-database
// cache counters. fn runs after the shard mutex is released and must be
// cheap and non-blocking; it may be called concurrently. Passing nil
// clears the hook.
func (c *Cache) SetEvictionHook(fn func(Key)) {
	if fn == nil {
		c.evictionHook.Store(nil)
		return
	}
	c.evictionHook.Store(&fn)
}

func (c *Cache) notifyEvicted(keys []Key) {
	if len(keys) == 0 {
		return
	}
	if fn := c.evictionHook.Load(); fn != nil {
		for _, k := range keys {
			(*fn)(k)
		}
	}
}

func (c *Cache) shardFor(k Key) *shard {
	var h maphash.Hash
	h.SetSeed(c.seed)
	_, _ = h.WriteString(k.QueryHash)
	_, _ = h.WriteString(k.Strategy)
	var gen [8]byte
	for i := 0; i < 8; i++ {
		gen[i] = byte(k.DBGen >> (8 * i))
	}
	_, _ = h.Write(gen[:])
	return &c.shards[h.Sum64()%numShards]
}

// Get returns the cached value for k, marking it most recently used.
func (c *Cache) Get(k Key) (any, bool) {
	if faultinject.Point("plancache.get") != nil {
		// An injected fault is a forced miss: the caller recomputes, which
		// must always be correct (the cache is an optimization, never the
		// source of truth).
		c.misses.Add(1)
		return nil, false
	}
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.items[k]
	var val any
	if ok {
		// Copy under the lock: Put on an existing key mutates e.val, so
		// reading it after unlock would race with a concurrent replace.
		val = e.val
		s.moveToFront(e)
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// Put stores v under k with the given size estimate, evicting cold
// entries until the shard fits its budget. A value larger than the whole
// shard budget is rejected (cached nothing, counted in Stats.Rejected).
// Storing under an existing key replaces the value.
func (c *Cache) Put(k Key, v any, sizeBytes int) {
	if faultinject.Point("plancache.put") != nil {
		// An injected fault drops the insert, as if it never fit.
		c.rejected.Add(1)
		return
	}
	size := int64(sizeBytes)
	if size < 1 {
		size = 1
	}
	s := c.shardFor(k)
	s.mu.Lock()
	if size > s.budget {
		s.mu.Unlock()
		c.rejected.Add(1)
		return
	}
	var evictedKeys []Key
	if e, ok := s.items[k]; ok {
		// Replace: retire the old value first so its ledger bytes are
		// available to the acquisition below. Not counted as an eviction —
		// the caller asked for the old value to go.
		s.removeLocked(e)
	}
	// Claim the new entry's bytes from the shared ledger, evicting this
	// shard's cold entries to make room. Pressure from other shards or
	// from live queries cannot be relieved here, so when the shard runs
	// out of entries to shed the insert is rejected: the cache is an
	// optimization and must never starve the evaluations it serves.
	for s.ledger != nil && !s.ledger.TryAcquire(size) {
		if s.tail == nil {
			s.mu.Unlock()
			if len(evictedKeys) > 0 {
				c.evictions.Add(uint64(len(evictedKeys)))
				c.notifyEvicted(evictedKeys)
			}
			c.rejected.Add(1)
			return
		}
		evictedKeys = append(evictedKeys, s.tail.key)
		s.removeLocked(s.tail)
	}
	e := &entry{key: k, val: v, size: size}
	s.items[k] = e
	s.pushFront(e)
	s.bytes += size
	for s.bytes > s.budget && s.tail != e {
		evictedKeys = append(evictedKeys, s.tail.key)
		s.removeLocked(s.tail)
	}
	s.mu.Unlock()
	if len(evictedKeys) > 0 {
		c.evictions.Add(uint64(len(evictedKeys)))
		c.notifyEvicted(evictedKeys)
	}
}

// Delete removes the entry for k, if present.
func (c *Cache) Delete(k Key) {
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.items[k]; ok {
		s.removeLocked(e)
	}
	s.mu.Unlock()
}

// InvalidateGeneration drops every entry built against the given database
// generation (used when a named database is replaced or dropped; the
// db-independent gen-0 plans survive). Returns the number dropped. The
// drops count as evictions and are reported to the eviction hook — to
// the database they are exactly that, work discarded before its natural
// retirement — so the per-database counters see re-registrations too.
func (c *Cache) InvalidateGeneration(gen uint64) int {
	var evictedKeys []Key
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.items {
			if k.DBGen == gen {
				s.removeLocked(e)
				evictedKeys = append(evictedKeys, k)
			}
		}
		s.mu.Unlock()
	}
	if len(evictedKeys) > 0 {
		c.evictions.Add(uint64(len(evictedKeys)))
		c.notifyEvicted(evictedKeys)
	}
	return len(evictedKeys)
}

// Stats snapshots the counters and current occupancy.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Rejected:  c.rejected.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.items)
		st.Bytes += s.bytes
		st.Budget += s.budget
		s.mu.Unlock()
	}
	return st
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// --- intrusive LRU list (all methods require s.mu held) ---

func (s *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) moveToFront(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

func (s *shard) removeLocked(e *entry) {
	s.unlink(e)
	delete(s.items, e.key)
	s.bytes -= e.size
	if s.ledger != nil {
		s.ledger.Release(e.size)
	}
}
