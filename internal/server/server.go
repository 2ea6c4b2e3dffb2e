// Package server implements ecrpqd, the resident ECRPQ query daemon: a
// stdlib-only HTTP server wrapping the core evaluation engine with a
// named-database registry, a plan cache (compiled plans and Lemma 4.3
// materializations reused across requests), admission control via a
// bounded worker pool, per-request deadlines that actually cancel
// evaluation work, graceful shutdown, invariant-aware panic recovery,
// and expvar-backed observability.
//
// Endpoints:
//
//	POST   /v1/dbs/{name}   register or replace a database (body: graphdb text)
//	DELETE /v1/dbs/{name}   drop a database
//	GET    /v1/dbs          list registered databases
//	POST   /v1/query        evaluate a query (JSON body, see readRequest)
//	POST   /v1/explain      the plan the daemon would run, optionally executed
//	POST   /v1/enumerate    stream one page of answers with a resumable cursor
//	GET    /v1/measures     structural measures + regimes of a query
//	GET    /healthz         liveness (always 200 while the process is up)
//	GET    /readyz          readiness (503 while draining)
//	GET    /v1/cluster      membership, peer health, and placement (cluster mode)
//	POST   /v1/replicate    apply one shipped journal record (cluster mode)
//	POST   /v1/replicate/pull  catch-up pull of missed records (cluster mode)
//	GET    /debug/vars      expvar JSON including the "ecrpqd" registry
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ecrpq/internal/cluster"
	"ecrpq/internal/core"
	"ecrpq/internal/govern"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/invariant"
	"ecrpq/internal/persist"
	"ecrpq/internal/plancache"
	"ecrpq/internal/server/metrics"
	"ecrpq/internal/trace"
)

// Config tunes the daemon. The zero value is usable: every field has a
// production-shaped default applied by New.
type Config struct {
	// Workers is the evaluation worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue beyond the busy workers
	// (default 64, negative = no queue at all); a full queue turns
	// requests into 429s.
	QueueDepth int
	// DefaultTimeout applies when a query request names none (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested timeout (default 5m).
	MaxTimeout time.Duration
	// CacheBudgetBytes is the plan-cache byte budget (default
	// plancache.DefaultBudget).
	CacheBudgetBytes int64
	// MaxProductStates caps each component product search, as
	// core.Options.MaxProductStates (default: core's default).
	MaxProductStates int
	// Logger receives structured (key=value) request and lifecycle lines
	// (default: stderr; use log.New(io.Discard, "", 0) to silence).
	Logger *log.Logger
	// TraceSampleEvery traces one request in N (default 1 = every request;
	// negative disables tracing entirely). When SlowQueryThreshold is set,
	// sampling is forced to every request: the slow-query log can only
	// report a stage breakdown for requests that carry a trace.
	TraceSampleEvery int
	// TraceRingSize is how many recent trace snapshots /debug/trace/recent
	// retains (default 64).
	TraceRingSize int
	// SlowQueryThreshold makes any request slower than this emit a
	// structured slow_query log line with its plan snapshot and per-stage
	// breakdown (0 = disabled).
	SlowQueryThreshold time.Duration
	// MemBudgetBytes caps the bytes held by live evaluations plus the plan
	// cache's resident entries, via one shared ledger. 0 = no cap
	// (reservations are still accounted, so peak usage stays observable).
	// Queries that would push the ledger past the budget fail fast with a
	// structured 429 RESOURCE_EXHAUSTED instead of OOM-killing the process.
	MemBudgetBytes int64
	// QueryReserveBytes is the up-front admission reservation each query
	// claims before any evaluation work starts (default 256 KiB). The
	// evaluation grows the reservation as it allocates.
	QueryReserveBytes int64
	// QuotaRPS enables a per-client token-bucket quota (keyed by the
	// X-Ecrpq-Client header) at this sustained requests/second (0 = off).
	QuotaRPS float64
	// QuotaBurst is the token-bucket capacity (default max(2*QuotaRPS, 1)).
	QuotaBurst float64
	// ShedEnabled turns on adaptive overload shedding: low-priority
	// requests (X-Ecrpq-Priority: low) are rejected while queue-wait p99
	// or reserved memory is past its threshold.
	ShedEnabled bool
	// ShedQueueWait is the queue-wait p99 above which shedding engages
	// (default 250ms, the govern package default).
	ShedQueueWait time.Duration
	// ShedMemFraction is the reserved/budget fraction above which shedding
	// engages (default 0.9; meaningful only with MemBudgetBytes > 0).
	ShedMemFraction float64
	// DegradedFallback answers memory-denied queries with the
	// satisfiability-only decision (near-constant memory, db-independent)
	// marked degraded, instead of a bare 429.
	DegradedFallback bool
	// EnumerateDefaultLimit is the /v1/enumerate page size when the
	// request names none (default 100).
	EnumerateDefaultLimit int
	// EnumerateMaxLimit caps any requested page size (default 1000).
	EnumerateMaxLimit int
	// ScrubInterval enables the background integrity scrub at this cadence
	// (0 = disabled). Each pass re-verifies every registered database's
	// in-memory content digest and structural invariants, its on-disk
	// snapshot CRC, and the journal tail, quarantining (not crashing on)
	// anything corrupt.
	ScrubInterval time.Duration
	// ScrubPaceBytes bounds how many snapshot bytes one scrub pass reads
	// from disk per second (default 8 MiB/s when scrubbing is enabled), so
	// the scrub cannot starve serving I/O.
	ScrubPaceBytes int64
	// AntiEntropyInterval enables the periodic cross-holder (generation,
	// digest) comparison in cluster mode (0 = disabled). A holder that
	// finds itself divergent from the owner at the same generation
	// quarantines the database and schedules a repair pull.
	AntiEntropyInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.CacheBudgetBytes == 0 {
		c.CacheBudgetBytes = plancache.DefaultBudget
	}
	if c.Logger == nil {
		c.Logger = log.New(os.Stderr, "ecrpqd ", log.LstdFlags|log.LUTC)
	}
	if c.TraceSampleEvery == 0 {
		c.TraceSampleEvery = 1
	}
	if c.SlowQueryThreshold > 0 {
		c.TraceSampleEvery = 1
	}
	if c.TraceRingSize <= 0 {
		c.TraceRingSize = 64
	}
	if c.MemBudgetBytes < 0 {
		c.MemBudgetBytes = 0
	}
	if c.QueryReserveBytes <= 0 {
		c.QueryReserveBytes = 256 << 10
	}
	if c.EnumerateDefaultLimit <= 0 {
		c.EnumerateDefaultLimit = 100
	}
	if c.EnumerateMaxLimit <= 0 {
		c.EnumerateMaxLimit = 1000
	}
	if c.ScrubPaceBytes <= 0 {
		c.ScrubPaceBytes = 8 << 20
	}
	return c
}

// Server is the ecrpqd daemon: an http.Handler plus the resident state
// (database registry, plan cache, worker pool, metrics).
type Server struct {
	cfg      Config
	dbs      *dbRegistry
	cache    *plancache.Cache
	pool     *workerPool
	mux      *http.ServeMux
	reg      *metrics.Registry
	started  time.Time
	draining atomic.Bool
	inflight atomic.Int64

	// Persistence. store is nil when the daemon runs in-memory only.
	// persistMu is the write pipeline's lock (install and remove, write.go):
	// it serializes registry mutations with their durability writes so the
	// journal order matches the order mutations became visible — without it
	// two concurrent replaces of one name could commit to disk in the
	// opposite order they won the registry.
	store     atomic.Pointer[persist.Store]
	persistMu sync.Mutex

	// Cluster mode. clu is nil in single-node mode; AttachCluster publishes
	// the membership handle atomically, so even a node already serving
	// traffic can join without a lock on the request path. shipCh is the
	// push-replication queue (idle until then); forwardRR rotates read
	// forwards across healthy holders.
	clu       atomic.Pointer[cluster.Cluster]
	shipCh    chan shipTask
	forwardRR atomic.Uint64

	// loops runs everything in the background — scrub passes and, in
	// cluster mode, probes, the ship queue, catch-up and anti-entropy — and
	// Shutdown stops it.
	loops *cluster.Loops

	// tracer samples per-request traces into a ring buffer for
	// /debug/trace/{recent,chrome} and the slow-query log. Nil when
	// tracing is disabled (TraceSampleEvery < 0); every use is nil-safe.
	tracer *trace.Tracer

	// Resource governance. broker is the process-wide byte ledger shared
	// by live evaluations and the plan cache (always non-nil); quota and
	// shedder are nil when their feature is off (nil-safe throughout).
	broker  *govern.Broker
	quota   *govern.Quota
	shedder *govern.Shedder

	// Metrics (all owned by reg; cached here to avoid name lookups on the
	// hot path).
	mQueries     *metrics.Counter
	mErrors      *metrics.Counter
	mTimeouts    *metrics.Counter
	mRejected    *metrics.Counter
	mPanics      *metrics.Counter
	mInflight    *metrics.Gauge
	mLatency     *metrics.Histogram
	mEvalLatency *metrics.Histogram
	mStrategy    map[string]*metrics.Counter
	mCacheHits   *metrics.Counter
	mCacheMisses *metrics.Counter
	mSlow        *metrics.Counter

	mParseMemoHits   *metrics.Counter // request texts answered by the text memo (see parsed)
	mParseMemoMisses *metrics.Counter // request texts parsed and hashed
	mAnswerMemoHits  *metrics.Counter // Boolean queries answered by a cached materialisation's decided answer

	mResourceDenied *metrics.Counter   // queries refused: memory budget exhausted
	mQuotaDenied    *metrics.Counter   // queries refused: per-client quota
	mShed           *metrics.Counter   // queries refused: adaptive overload shed
	mDroppedExpired *metrics.Counter   // jobs dropped at dequeue: deadline passed while queued
	mDegraded       *metrics.Counter   // queries answered via the satisfiability fallback
	mQueueWait      *metrics.Histogram // pool submit→dequeue latency
	mEnumerates     *metrics.Counter   // /v1/enumerate pages served or attempted
	mExplains       *metrics.Counter   // /v1/explain plans rendered or attempted
	mStaleCursors   *metrics.Counter   // enumerate cursors refused: database re-registered

	// Per-database plan-cache attribution: dbCache accumulates
	// hit/miss/eviction counts per database name. Evictions reach it through
	// the cache's eviction hook, which only sees keys and asks the registry
	// which name a generation belongs to. Gen-0 (db-independent plan)
	// evictions are not attributed.
	dbCacheMu sync.Mutex
	dbCache   map[string]*dbCacheCounters

	mForwards       *metrics.Counter // reads answered by another holder (incl. typed refusals)
	mForwardErrors  *metrics.Counter // forward attempts that failed at the transport level
	mRedirects      *metrics.Counter // writes 307-redirected to the owning node
	mOwnerDown      *metrics.Counter // writes refused: owner unreachable
	mShipped        *metrics.Counter // replication records pushed successfully
	mShipErrors     *metrics.Counter // replication pushes that failed (catch-up repairs)
	mShipDropped    *metrics.Counter // replication pushes dropped at enqueue (queue/ledger full)
	mApplied        *metrics.Counter // replication records applied locally
	mApplyStale     *metrics.Counter // replication records ignored: at/below local generation
	mCatchupPulls   *metrics.Counter // catch-up pull rounds completed
	mCatchupApplied *metrics.Counter // records repaired via catch-up

	// Integrity subsystem state (see integrity.go in this package; which
	// copies are quarantined is on the registry's entries). salvageMu/salvage
	// retain the persist layer's torn-tail salvage notes, previously logged
	// once and dropped, for /healthz and expvar. scrubMu/scrubStat expose the
	// last scrub pass.
	salvageMu sync.Mutex
	salvage   []string
	scrubMu   sync.Mutex
	scrubStat scrubStatus

	mDigestsComputed  *metrics.Counter // content digests computed at register/restore time
	mDigestMismatches *metrics.Counter // digest verifications that failed (any path)
	mScrubPasses      *metrics.Counter // completed background scrub passes
	mScrubCorrupt     *metrics.Counter // corruption findings from scrub passes
	mQuarantines      *metrics.Counter // databases placed in quarantine
	mRepairs          *metrics.Counter // quarantined databases restored to verified state
	mRepairErrors     *metrics.Counter // repair attempts that failed (retried next round)
	mApplyRejected    *metrics.Counter // replicate records rejected: shipped digest mismatch
	mAERounds         *metrics.Counter // anti-entropy comparison rounds completed
	mAEDivergent      *metrics.Counter // anti-entropy comparisons that found divergence
	mCorruptRefused   *metrics.Counter // reads refused with 503 CORRUPT_LOCAL
}

// New returns a ready-to-serve daemon. Callers own the HTTP listener
// lifecycle; the Server is an http.Handler.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   plancache.New(cfg.CacheBudgetBytes),
		mux:     http.NewServeMux(),
		reg:     metrics.NewRegistry(),
		started: time.Now(),
		dbCache: make(map[string]*dbCacheCounters),
		shipCh:  make(chan shipTask, shipQueueDepth),
	}
	s.dbs = newDBRegistry(s.cache.InvalidateGeneration)
	s.loops = cluster.NewLoops(s.reg)
	// One ledger for everything resident: live evaluations reserve from
	// the broker and the plan cache charges its entries to it, so a cached
	// materialization and an in-flight sweep compete for the same budget.
	s.broker = govern.NewBroker(cfg.MemBudgetBytes)
	s.cache.SetLedger(s.broker)
	if cfg.QuotaRPS > 0 {
		s.quota = govern.NewQuota(govern.QuotaConfig{RatePerSec: cfg.QuotaRPS, Burst: cfg.QuotaBurst})
	}
	if cfg.ShedEnabled {
		s.shedder = govern.NewShedder(govern.ShedConfig{
			QueueWaitP99: cfg.ShedQueueWait,
			MemFraction:  cfg.ShedMemFraction,
		}, s.broker)
	}
	s.mQueries = s.reg.Counter("queries_total")
	s.mErrors = s.reg.Counter("query_errors_total")
	s.mTimeouts = s.reg.Counter("query_timeouts_total")
	s.mRejected = s.reg.Counter("admission_rejected_total")
	s.mPanics = s.reg.Counter("panics_recovered_total")
	s.mInflight = s.reg.Gauge("inflight")
	s.mLatency = s.reg.Histogram("request_seconds", nil)
	s.mEvalLatency = s.reg.Histogram("eval_seconds", nil)
	s.mStrategy = map[string]*metrics.Counter{
		"generic":   s.reg.Counter("eval_generic_total"),
		"reduction": s.reg.Counter("eval_reduction_total"),
	}
	s.mCacheHits = s.reg.Counter("plan_cache_request_hits_total")
	s.mCacheMisses = s.reg.Counter("plan_cache_request_misses_total")
	s.mSlow = s.reg.Counter("slow_queries_total")
	s.mParseMemoHits = s.reg.Counter("parse_memo_hits_total")
	s.mParseMemoMisses = s.reg.Counter("parse_memo_misses_total")
	s.mAnswerMemoHits = s.reg.Counter("answer_memo_hits_total")
	s.mResourceDenied = s.reg.Counter("resource_denied_total")
	s.mQuotaDenied = s.reg.Counter("quota_denied_total")
	s.mShed = s.reg.Counter("shed_total")
	s.mDroppedExpired = s.reg.Counter("dropped_expired_total")
	s.mDegraded = s.reg.Counter("degraded_answers_total")
	s.mQueueWait = s.reg.Histogram("queue_wait_seconds", nil)
	s.mEnumerates = s.reg.Counter("enumerates_total")
	s.mExplains = s.reg.Counter("explains_total")
	s.mStaleCursors = s.reg.Counter("stale_cursors_total")
	s.mForwards = s.reg.Counter("cluster_forwards_total")
	s.mForwardErrors = s.reg.Counter("cluster_forward_errors_total")
	s.mRedirects = s.reg.Counter("cluster_write_redirects_total")
	s.mOwnerDown = s.reg.Counter("cluster_owner_down_total")
	s.mShipped = s.reg.Counter("cluster_replicate_shipped_total")
	s.mShipErrors = s.reg.Counter("cluster_replicate_ship_errors_total")
	s.mShipDropped = s.reg.Counter("cluster_replicate_ship_dropped_total")
	s.mApplied = s.reg.Counter("cluster_replicate_applied_total")
	s.mApplyStale = s.reg.Counter("cluster_replicate_stale_total")
	s.mCatchupPulls = s.reg.Counter("cluster_catchup_pulls_total")
	s.mCatchupApplied = s.reg.Counter("cluster_catchup_applied_total")
	s.mDigestsComputed = s.reg.Counter("integrity_digests_computed_total")
	s.mDigestMismatches = s.reg.Counter("integrity_digest_mismatches_total")
	s.mScrubPasses = s.reg.Counter("integrity_scrub_passes_total")
	s.mScrubCorrupt = s.reg.Counter("integrity_scrub_corrupt_total")
	s.mQuarantines = s.reg.Counter("integrity_quarantines_total")
	s.mRepairs = s.reg.Counter("integrity_repairs_total")
	s.mRepairErrors = s.reg.Counter("integrity_repair_errors_total")
	s.mApplyRejected = s.reg.Counter("integrity_apply_rejected_total")
	s.mAERounds = s.reg.Counter("integrity_anti_entropy_rounds_total")
	s.mAEDivergent = s.reg.Counter("integrity_anti_entropy_divergent_total")
	s.mCorruptRefused = s.reg.Counter("integrity_corrupt_refused_total")
	// The pool is built after the metrics and shedder it feeds.
	s.pool = newWorkerPool(cfg.Workers, cfg.QueueDepth,
		func() { s.mDroppedExpired.Inc() },
		func(d time.Duration) {
			s.mQueueWait.Observe(d)
			s.shedder.Observe(d)
		})
	if cfg.TraceSampleEvery >= 0 {
		s.tracer = trace.NewTracer(cfg.TraceSampleEvery, cfg.TraceRingSize)
	}
	s.reg.Func("plan_cache", func() string {
		st := s.cache.Stats()
		return fmt.Sprintf(`{"hits":%d,"misses":%d,"evictions":%d,"rejected":%d,"entries":%d,"bytes":%d,"budget":%d,"hit_rate":%.4f}`,
			st.Hits, st.Misses, st.Evictions, st.Rejected, st.Entries, st.Bytes, st.Budget, st.HitRate())
	})
	s.reg.Func("plan_cache_by_db", s.renderDBCache)
	s.cache.SetEvictionHook(s.onCacheEviction)
	s.reg.Func("govern", func() string {
		st := s.broker.Stats()
		return fmt.Sprintf(`{"budget_bytes":%d,"reserved_bytes":%d,"peak_bytes":%d,"denials":%d}`,
			st.BudgetBytes, st.ReservedBytes, st.PeakBytes, st.Denials)
	})
	s.reg.Func("databases", func() string { return fmt.Sprintf("%d", s.dbs.size()) })
	s.reg.Func("uptime_seconds", func() string {
		return fmt.Sprintf("%.0f", time.Since(s.started).Seconds())
	})
	s.reg.Func("integrity", s.renderIntegrity)
	s.reg.Func("persist_health", s.renderPersistHealth)

	s.mux.HandleFunc("POST /v1/dbs/{name}", s.wrap(s.handleRegisterDB))
	s.mux.HandleFunc("DELETE /v1/dbs/{name}", s.wrap(s.handleDropDB))
	s.mux.HandleFunc("GET /v1/dbs", s.wrap(s.handleListDBs))
	for _, op := range []*readOp{
		{name: "query", total: s.mQueries, degraded: true,
			run: func(ctx context.Context, c *readCall) (any, error) { return s.evaluate(ctx, c, matCached) }},
		{name: "explain", total: s.mExplains,
			run: func(ctx context.Context, c *readCall) (any, error) { return s.explain(ctx, c) }},
		{name: "enumerate", total: s.mEnumerates, check: s.checkCursor,
			run: func(ctx context.Context, c *readCall) (any, error) { return s.enumerate(ctx, c) }},
	} {
		s.mux.HandleFunc("POST /v1/"+op.name, s.wrap(s.serveRead(op)))
	}
	s.mux.HandleFunc("GET /v1/stats/{name}", s.wrap(s.handleStats))
	s.mux.HandleFunc("GET /v1/measures", s.wrap(s.handleMeasures))
	s.mux.HandleFunc("POST /v1/measures", s.wrap(s.handleMeasures))
	s.mux.HandleFunc("GET /healthz", s.wrap(s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.wrap(s.handleReadyz))
	s.mux.HandleFunc("GET /v1/cluster", s.wrap(s.handleClusterStatus))
	s.mux.HandleFunc("POST /v1/replicate", s.wrap(s.handleReplicate))
	s.mux.HandleFunc("POST /v1/replicate/pull", s.wrap(s.handleReplicatePull))
	s.mux.HandleFunc("GET /v1/integrity/{name}", s.wrap(s.handleIntegrity))
	s.mux.HandleFunc("GET /debug/vars", s.wrap(s.handleDebugVars))
	s.mux.HandleFunc("GET /debug/trace/recent", s.wrap(s.handleTraceRecent))
	s.mux.HandleFunc("GET /debug/trace/chrome", s.wrap(s.handleTraceChrome))
	if cfg.ScrubInterval > 0 {
		s.loops.Every("scrub", cfg.ScrubInterval, s.scrubOnce)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics returns the server's metrics registry (for publishing as a
// process-global expvar).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// RegisterDB installs db under name programmatically (used for preloading
// at startup and by tests), with the same replace-and-invalidate semantics
// as POST /v1/dbs/{name}.
func (s *Server) RegisterDB(name string, db *graphdb.DB) error {
	if name == "" {
		return fmt.Errorf("server: database name required")
	}
	// In cluster mode only the ring owner may mint generations for a name;
	// a preload on the wrong node would silently diverge from replication.
	if c := s.clu.Load(); c != nil && !c.IsOwner(name) {
		return fmt.Errorf("server: node %s does not own %q (owner is %s); preload it there",
			c.Self().ID, name, c.Owner(name).ID)
	}
	entry, replaced, err := s.install(context.Background(), installReq{from: fromClient, name: name, db: db})
	if err != nil {
		return err
	}
	s.cfg.Logger.Printf("event=register_db name=%s gen=%d vertices=%d replaced=%t",
		name, entry.gen, db.NumVertices(), replaced != nil)
	return nil
}

// AttachStore wires a persistence store into the server: the store's
// replayed entries are installed in the registry (with their pre-crash
// generations), the generation counter is floored at the journal's
// maximum so dropped generations are never reissued, and every later
// register/replace/drop is made durable before it becomes visible.
// Call before serving traffic. Returns the number of databases restored.
func (s *Server) AttachStore(st *persist.Store) (int, error) {
	if st == nil {
		return 0, fmt.Errorf("server: nil store")
	}
	// The store is attached, and the generation counter floored, before the
	// replay: a registration racing it is journaled and gets a generation
	// past every replayed one, so the replay of an older entry for the same
	// name is stale and skipped.
	s.persistMu.Lock()
	attached := s.store.CompareAndSwap(nil, st)
	s.dbs.bumpGen(st.MaxGen())
	s.persistMu.Unlock()
	if !attached {
		return 0, fmt.Errorf("server: a store is already attached")
	}
	warnings := st.Warnings()
	for _, w := range warnings {
		s.cfg.Logger.Printf("event=persist_warning msg=%q", w)
	}
	// Salvage notes used to be logged once and dropped; retain them so
	// /healthz and the persist_health expvar can report what the journal
	// recovery discarded long after the startup log has scrolled away.
	s.salvageMu.Lock()
	s.salvage = append(s.salvage, warnings...)
	s.salvageMu.Unlock()
	restored := 0
	for _, e := range st.TakeEntries() {
		entry, _, err := s.install(context.Background(), installReq{from: fromDisk,
			name: e.Name, db: e.DB, gen: e.Gen, at: e.RegisteredAt, stats: e.Stats, digest: e.Digest})
		if err != nil {
			return restored, err
		}
		if entry == nil {
			continue // something newer is already registered
		}
		restored++
		s.cfg.Logger.Printf("event=restore_db name=%s gen=%d vertices=%d stats=%t digest=%s",
			e.Name, e.Gen, e.DB.NumVertices(), entry.stats != nil, entry.digest)
	}
	return restored, nil
}

// CacheStats snapshots the plan cache counters.
func (s *Server) CacheStats() plancache.Stats { return s.cache.Stats() }

// GovernStats snapshots the memory broker's ledger (budget, reserved,
// peak, denials) for tests, benchmarks, and the overload experiment.
func (s *Server) GovernStats() govern.BrokerStats { return s.broker.Stats() }

// Shutdown drains the daemon: new query and registration requests are
// refused with 503 (carrying Retry-After so well-behaved clients back
// off to a healthy replica), in-flight requests run to completion
// (bounded by ctx), and the worker pool is stopped. The pool stop is
// also bounded by ctx — a wedged evaluation job cannot keep the process
// alive forever; it is abandoned and the stuck count logged. The HTTP
// listener should be shut down first (http.Server.Shutdown) or
// concurrently; Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Stop the background work first: a scrub mid-pass, the probers, the
	// replication shipper and the catch-up loop must not keep calling peers,
	// applying records or healing entries while the registry is being torn
	// down.
	s.loops.Stop()
	for s.inflight.Load() > 0 {
		if !cluster.Sleep(ctx, 5*time.Millisecond) {
			// Still stop pool admission before giving up, so abandoned
			// requests cannot enqueue more work into a dying process.
			stuck, _ := s.pool.closeCtx(ctx)
			s.cfg.Logger.Printf("event=shutdown drained=false inflight=%d stuck_workers=%d",
				s.inflight.Load(), stuck)
			return fmt.Errorf("server: shutdown abandoned %d in-flight request(s): %w",
				s.inflight.Load(), ctx.Err())
		}
	}
	if stuck, err := s.pool.closeCtx(ctx); err != nil {
		s.cfg.Logger.Printf("event=shutdown drained=false stuck_workers=%d", stuck)
		return fmt.Errorf("server: shutdown abandoned %d wedged worker(s): %w", stuck, err)
	}
	s.cfg.Logger.Printf("event=shutdown drained=true")
	return nil
}

// statusWriter captures the response code for request logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// wrap is the common middleware: panic recovery (see recovered), request
// metrics, and structured logging.
func (s *Server) wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				viol := s.recovered(rec, "method="+r.Method+" path="+r.URL.Path)
				writeError(sw, http.StatusInternalServerError, "internal invariant violation: "+viol.Msg)
			}
			s.mLatency.Observe(time.Since(start))
			s.cfg.Logger.Printf("event=request method=%s path=%s status=%d dur_ms=%.2f",
				r.Method, r.URL.Path, sw.status, float64(time.Since(start).Microseconds())/1000)
		}()
		h(sw, r)
	}
}

// recovered is the daemon's one policy for a panic recovered on a request
// goroutine or on a pool worker: an invariant violation is counted, logged
// with where it surfaced, and returned for the caller to answer as a 500;
// anything else is a genuine bug and re-raised — crash loudly rather than
// serve corrupted state. rec is the caller's non-nil recover() result
// (recover only works when the deferred function itself calls it).
func (s *Server) recovered(rec any, where string) *invariant.Violation {
	var viol *invariant.Violation
	if err, ok := rec.(error); !ok || !errors.As(err, &viol) {
		panic(rec)
	}
	s.mPanics.Inc()
	s.cfg.Logger.Printf("event=panic_recovered %s violation=%q", where, viol.Error())
	return viol
}

// handleHealthz reports liveness: always 200 while the process is up,
// with the drain state in the body. Liveness and readiness are split so
// an orchestrator (or a cluster peer) can tell "draining, let it finish"
// from "dead, restart it" — a liveness probe that fails during drain
// would get a graceful shutdown kill -9'd.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	body := map[string]any{
		"status":         status,
		"uptime_seconds": time.Since(s.started).Seconds(),
		"databases":      s.dbs.size(),
		"inflight":       s.inflight.Load(),
	}
	// Degraded-but-alive detail: journal salvage notes from the last
	// restart and any databases currently quarantined by the integrity
	// subsystem. Liveness stays 200 — the process is healthy even when
	// some content is not — but operators probing /healthz see the damage.
	s.salvageMu.Lock()
	if len(s.salvage) > 0 {
		body["persist_salvage"] = append([]string(nil), s.salvage...)
	}
	s.salvageMu.Unlock()
	if q := s.quarantinedEntries(); len(q) > 0 {
		reasons := make(map[string]string, len(q))
		for _, e := range q {
			reasons[e.name] = e.quar.reason
		}
		body["quarantined"] = reasons
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReadyz reports readiness to take traffic: 503 once draining
// begins, so load balancers and cluster peer probes stop routing here
// while in-flight work completes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, map[string]any{
		"status":         status,
		"uptime_seconds": time.Since(s.started).Seconds(),
		"databases":      s.dbs.size(),
		"inflight":       s.inflight.Load(),
	})
}

// handleDebugVars renders the standard expvar variables plus this
// server's registry under "ecrpqd". Rendering locally (instead of
// expvar.Handler) keeps test servers from fighting over process-global
// names.
func (s *Server) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n%q: %s", "ecrpqd", s.reg.String())
	expvar.Do(func(kv expvar.KeyValue) {
		if kv.Value == expvar.Var(s.reg) {
			// This server's registry, whatever name it was published
			// under: already rendered above, a second copy would make
			// the JSON invalid (duplicate keys).
			return
		}
		fmt.Fprintf(w, ",\n%q: %s", kv.Key, kv.Value.String())
	})
	fmt.Fprint(w, "\n}\n")
}

// handleTraceRecent serves the ring buffer of recent request traces as
// JSON (newest first).
func (s *Server) handleTraceRecent(w http.ResponseWriter, r *http.Request) {
	recent := s.tracer.Recent(0)
	if recent == nil {
		recent = []trace.TraceData{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled": s.tracer != nil,
		"traces":  recent,
	})
}

// handleTraceChrome serves the same ring as a Chrome trace_event JSON
// file: save it and load into chrome://tracing or ui.perfetto.dev.
func (s *Server) handleTraceChrome(w http.ResponseWriter, r *http.Request) {
	recent := s.tracer.Recent(0)
	// Oldest first so the timeline reads chronologically.
	for i, j := 0, len(recent)-1; i < j; i, j = i+1, j-1 {
		recent[i], recent[j] = recent[j], recent[i]
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Disposition", `attachment; filename="ecrpqd-trace.json"`)
	if err := trace.WriteChrome(w, recent...); err != nil {
		// Headers are out; nothing more useful to do.
		_ = err
	}
}

// startTrace begins a sampled trace for one request and threads it
// through ctx. Both results may be nil/unchanged when the request is not
// sampled.
func (s *Server) startTrace(ctx context.Context, name string) (context.Context, *trace.Trace) {
	tr := s.tracer.Sample(name)
	return trace.NewContext(ctx, tr), tr
}

// finishTrace collects tr into the ring and, when the request ran past
// the -slow-query threshold, logs its plan snapshot and per-stage
// breakdown: only such a request renders its trace here. Nil-safe.
func (s *Server) finishTrace(tr *trace.Trace) {
	if tr == nil {
		return
	}
	s.tracer.Collect(tr)
	thr := s.cfg.SlowQueryThreshold
	if thr <= 0 || tr.Duration() < thr {
		return
	}
	s.mSlow.Inc()
	td := tr.Snapshot()
	var stages []byte
	{
		type row struct {
			Name   string         `json:"name"`
			Count  int            `json:"count"`
			SelfMs float64        `json:"self_ms"`
			Attrs  map[string]any `json:"attrs,omitempty"`
		}
		br := td.Breakdown()
		rows := make([]row, 0, len(br))
		for _, st := range br {
			rows = append(rows, row{Name: st.Name, Count: st.Count, SelfMs: st.SelfUs / 1000, Attrs: st.Attrs})
		}
		stages, _ = json.Marshal(rows)
	}
	plan, _ := json.Marshal(td.Attrs)
	s.cfg.Logger.Printf("event=slow_query name=%s trace_id=%d dur_ms=%.2f threshold_ms=%.0f plan=%s stages=%s",
		td.Name, td.ID, td.DurMs, float64(thr)/float64(time.Millisecond), plan, stages)
}

// cacheGet and cachePut wrap the plan cache with trace spans so cache
// dwell time shows up in per-stage breakdowns.
func (s *Server) cacheGet(ctx context.Context, key plancache.Key) (any, bool) {
	_, sp := trace.StartSpan(ctx, "plancache/get")
	v, ok := s.cache.Get(key)
	sp.End()
	return v, ok
}

func (s *Server) cachePut(ctx context.Context, key plancache.Key, v any, size int) {
	_, sp := trace.StartSpan(ctx, "plancache/put")
	s.cache.Put(key, v, size)
	sp.End()
}

// coreOptions builds the evaluation options for one request.
func (s *Server) coreOptions(strategy core.Strategy) core.Options {
	return core.Options{
		Strategy:         strategy,
		MaxProductStates: s.cfg.MaxProductStates,
	}
}

// parseStrategy maps the request string to a core.Strategy.
func parseStrategy(name string) (core.Strategy, string, error) {
	switch name {
	case "", "auto":
		return core.Auto, "auto", nil
	case "generic":
		return core.Generic, "generic", nil
	case "reduction":
		return core.Reduction, "reduction", nil
	}
	return 0, "", fmt.Errorf("unknown strategy %q (want auto, generic or reduction)", name)
}
