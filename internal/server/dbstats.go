package server

// Statistics-catalog plumbing and per-database plan-cache attribution.
//
// Every registration (local, restored, or replicated) carries a
// stats.Catalog on its dbEntry; the cost-based planner consumes it via
// planDecision (handlers.go). The per-database cache counters attribute
// plan-cache request hits/misses by database name and evictions by the
// evicted key's generation, rendered into the expvar registry as
// "plan_cache_by_db".

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"ecrpq/internal/govern"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/plancache"
	"ecrpq/internal/stats"
)

// statsComputeReserve is the transient ledger reservation wrapped around a
// statistics computation. stats.Compute charges it the passes' scratch (13
// bytes per vertex, released when they end) and the retained catalog; it
// covers databases up to ~300 000 vertices outright, and a larger one grows
// it from the broker or, refused, registers without a catalog.
const statsComputeReserve = 4 << 20

// computeStats builds the statistics catalog for a registration, or nil
// when statistics are disabled or the memory broker cannot admit the
// computation right now. Never fails the registration.
func (s *Server) computeStats(ctx context.Context, db *graphdb.DB, gen uint64) *stats.Catalog {
	if s.cfg.DisableStats {
		return nil
	}
	res, err := s.broker.Reserve(statsComputeReserve)
	if err != nil {
		s.cfg.Logger.Printf("event=stats_skipped gen=%d reason=%q", gen, err.Error())
		return nil
	}
	defer res.Release()
	cat, err := stats.Compute(govern.NewContext(ctx, res), db, gen)
	if err != nil {
		s.cfg.Logger.Printf("event=stats_failed gen=%d err=%q", gen, err.Error())
		return nil
	}
	return cat
}

// handleStats serves GET /v1/stats/{name}: the statistics catalog of a
// locally held database. Catalogs replicate with registrations, so any
// holder can answer; a node that does not hold the database returns 404
// (no cross-cluster forward — clients can ask a holder directly).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	entry, ok := s.dbs.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no database %q held on this node", name))
		return
	}
	if entry.stats == nil {
		writeErrorCode(w, http.StatusNotFound, "NO_STATS",
			fmt.Sprintf("database %q has no statistics catalog (stats disabled or computation skipped)", name))
		return
	}
	writeJSON(w, http.StatusOK, entry.stats)
}

// dbCacheCounters accumulates one database's plan-cache interactions.
type dbCacheCounters struct {
	hits      uint64
	misses    uint64
	evictions uint64
}

func (s *Server) dbCounters(name string) *dbCacheCounters {
	// Caller holds dbCacheMu.
	c, ok := s.dbCache[name]
	if !ok {
		c = &dbCacheCounters{}
		s.dbCache[name] = c
	}
	return c
}

// noteDBCacheRequest attributes one plan-cache request outcome to a
// database name.
func (s *Server) noteDBCacheRequest(name string, hit bool) {
	s.dbCacheMu.Lock()
	c := s.dbCounters(name)
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	s.dbCacheMu.Unlock()
}

// onCacheEviction is the plancache eviction hook: generation-keyed
// evictions are attributed to the owning database. Gen-0 entries are
// db-independent plans and stay unattributed.
func (s *Server) onCacheEviction(k plancache.Key) {
	if k.DBGen == 0 {
		return
	}
	if name, ok := s.dbs.nameOf(k.DBGen); ok {
		s.dbCacheMu.Lock()
		s.dbCounters(name).evictions++
		s.dbCacheMu.Unlock()
	}
}

// renderDBCache renders the per-database counters as one JSON object,
// keys sorted by database name:
//
//	{"orders":{"hits":12,"misses":3,"evictions":1},...}
//
// The shape is pinned by TestPerDBCacheMetricsShape.
func (s *Server) renderDBCache() string {
	s.dbCacheMu.Lock()
	names := make([]string, 0, len(s.dbCache))
	for n := range s.dbCache {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		c := s.dbCache[n]
		fmt.Fprintf(&sb, "%q:{\"hits\":%d,\"misses\":%d,\"evictions\":%d}", n, c.hits, c.misses, c.evictions)
	}
	sb.WriteByte('}')
	s.dbCacheMu.Unlock()
	return sb.String()
}

// StatsFor returns the statistics catalog held for a database, for tests
// and tooling. nil when the database is unknown or has no catalog.
func (s *Server) StatsFor(name string) *stats.Catalog {
	e, ok := s.dbs.get(name)
	if !ok {
		return nil
	}
	return e.stats
}

// statsAge renders how stale a catalog is relative to now — used by
// explain responses for operator context.
func statsAge(registeredAt time.Time) float64 {
	return time.Since(registeredAt).Seconds()
}
