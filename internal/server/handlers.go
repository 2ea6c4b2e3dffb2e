package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ecrpq/internal/core"
	"ecrpq/internal/govern"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/invariant"
	"ecrpq/internal/plancache"
	"ecrpq/internal/planner"
	"ecrpq/internal/query"
	"ecrpq/internal/server/metrics"
	"ecrpq/internal/trace"
)

// maxBodyBytes bounds request bodies (databases and queries are text).
const maxBodyBytes = 64 << 20

// readRequest is the body of the three read endpoints (POST /v1/query,
// /v1/explain, /v1/enumerate): one superset struct, decoded once, and
// marshalled again as it stands — with fwd set — when the request is
// relayed to a holder. An endpoint ignores the fields it has no use for.
type readRequest struct {
	// DB names a registered database.
	DB string `json:"db"`
	// Query is the query text in the internal/query DSL.
	Query string `json:"query"`
	// Strategy is auto (default), generic, or reduction.
	Strategy string `json:"strategy,omitempty"`
	// TimeoutMs overrides the server's default per-request timeout,
	// clamped to the configured maximum.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Forwarded marks a request relayed by another cluster node. A
	// forwarded request is never forwarded again — if the database is not
	// here either, that is a 404, not a routing loop.
	Forwarded bool `json:"fwd,omitempty"`
	// Execute (/v1/explain) runs the query after planning and reports
	// measured stage times alongside the estimates.
	Execute bool `json:"execute,omitempty"`
	// Limit and Cursor (/v1/enumerate) are the page size and the previous
	// response's next_cursor for the same db/query/strategy.
	Limit  int    `json:"limit,omitempty"`
	Cursor string `json:"cursor,omitempty"`
}

// readCall is one read request on its way through the pipeline: the
// decoded body plus everything serveRead resolves from it before a worker
// sees it.
type readCall struct {
	readRequest
	strat     core.Strategy
	stratName string // normalized Strategy
	q         *query.Query
	hash      string // query.Hash(q), from the request-text memo
	entry     *dbEntry
	offset    int // /v1/enumerate: tuples already returned, from the validated cursor
}

// readOp is what distinguishes one read endpoint from another; everything
// else is serveRead.
type readOp struct {
	// name is the path segment (/v1/<name>), the trace name, and the noun
	// in refusal messages.
	name string
	// total counts requests that passed admission.
	total *metrics.Counter
	// degraded: a memory denial may be answered by the satisfiability
	// fallback instead of a 429 (enumeration pages and plans have no
	// meaningful degraded form).
	degraded bool
	// check, when set, validates the located request before anything is
	// reserved; false means it wrote the refusal.
	check func(http.ResponseWriter, *readCall) bool
	// run is the worker side.
	run func(context.Context, *readCall) (any, error)
}

// queryResponse is the POST /v1/query success body.
type queryResponse struct {
	Sat       bool              `json:"sat"`
	Strategy  string            `json:"strategy"`
	Cache     string            `json:"cache"` // hit | partial | miss; bypass on a degraded answer, which ran no plan
	QueryHash string            `json:"query_hash"`
	Nodes     map[string]string `json:"nodes,omitempty"`
	Paths     map[string]string `json:"paths,omitempty"`
	Answers   [][]string        `json:"answers,omitempty"`
	Free      []string          `json:"free,omitempty"`
	Stats     core.Stats        `json:"stats"`
	ElapsedMs float64           `json:"elapsed_ms"`
	// Degraded marks a satisfiability-only fallback answer: the memory
	// budget could not cover the full evaluation, so Sat reflects the
	// paper's db-independent satisfiability decision and no witness or
	// answer set is included. DegradedReason is "admission" (denied before
	// evaluation started) or "evaluation" (denied mid-evaluation).
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// jsonBufs holds the buffers responses are encoded into.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v compactly into a pooled buffer and only then sends
// the status line, so the header can carry Content-Length, the body is one
// Write, and a value that does not encode (a non-finite float) is a 500 with
// an error body instead of the intended status over an empty one. A
// *queryResponse is appended (queryResponse.appendJSON, the same bytes);
// every other body goes through encoding/json.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	buf.Reset()
	var err error
	if qr, ok := v.(*queryResponse); ok {
		var b []byte
		if b, err = qr.appendJSON(buf.AvailableBuffer()); err == nil {
			buf.Write(b)
		}
	} else {
		err = json.NewEncoder(buf).Encode(v)
	}
	if err != nil { // nothing was written
		code = http.StatusInternalServerError
		_ = json.NewEncoder(buf).Encode(map[string]string{"error": "encoding response: " + err.Error()}) // a map of strings always encodes
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes()) // a failed write is the client's connection gone
	if buf.Cap() <= 1<<20 {     // an answer set's megabytes are not worth keeping
		jsonBufs.Put(buf)
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeErrorCode is writeError with a machine-readable code field so
// clients can tell overload flavours apart without parsing messages:
// RESOURCE_EXHAUSTED (memory budget), QUOTA_EXCEEDED (per-client rate),
// SHED (adaptive overload), OVERLOADED (admission queue full).
func writeErrorCode(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, map[string]string{"error": msg, "code": code})
}

// writeDraining answers a request arriving during shutdown: 503 with a
// Retry-After hint so retrying clients (internal/client honors the
// header) back off instead of hammering a server that is going away.
func writeDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "server is draining")
}

// bodyReserveMax caps what a declared Content-Length reserves before a byte
// of the body has arrived: the header sizes the buffer, it does not buy it.
const bodyReserveMax = 1 << 20

// readBody reads the whole request body, enforcing maxBodyBytes via
// http.MaxBytesReader so an oversized body is a 413 error rather than a
// silent truncation (a truncated database landing on a line boundary
// would otherwise parse as a smaller, wrong graph). The buffer starts at
// the declared length (up to bodyReserveMax), so a body that is what its
// header says is read into one allocation; a longer one grows it. On
// failure the error response has already been written and ok is false.
func readBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	var buf bytes.Buffer
	// MinRead more than declared: ReadFrom wants that much room before the
	// read that meets EOF.
	buf.Grow(int(min(max(r.ContentLength, 0), bodyReserveMax)) + bytes.MinRead)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		writeBodyError(w, "reading body", err)
		return nil, false
	}
	return buf.Bytes(), true
}

// writeBodyError answers a body that could not be read or decoded: 413
// past maxBodyBytes, 400 otherwise.
func writeBodyError(w http.ResponseWriter, what string, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the %d-byte limit", maxBodyBytes))
		return
	}
	writeError(w, http.StatusBadRequest, what+": "+err.Error())
}

// handleRegisterDB loads the request body as a graph database and installs
// it under the path name, replacing (and cache-invalidating) any previous
// registration of that name.
func (s *Server) handleRegisterDB(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeDraining(w)
		return
	}
	name := r.PathValue("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "database name required")
		return
	}
	if s.routeWrite(w, r, name) {
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	ctx, tr := s.startTrace(r.Context(), "register")
	defer s.finishTrace(tr)
	tr.SetStr("db", name)
	sp := tr.Start("server/parse")
	db, err := graphdb.Parse(bytes.NewReader(body))
	sp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	entry, replaced, err := s.install(ctx, installReq{from: fromClient, name: name, db: db})
	if err != nil {
		// The registration is not durable, so it did not happen: memory
		// was left untouched and the client must retry or give up.
		s.cfg.Logger.Printf("event=register_db_failed name=%s err=%q", name, err)
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.cfg.Logger.Printf("event=register_db name=%s gen=%d vertices=%d replaced=%t",
		name, entry.gen, db.NumVertices(), replaced != nil)
	writeJSON(w, http.StatusOK, map[string]any{
		"name":       name,
		"generation": entry.gen,
		"vertices":   db.NumVertices(),
		"alphabet":   db.Alphabet().Size(),
		"replaced":   replaced != nil,
	})
}

// handleDropDB removes a database and its cached materializations,
// journaling the drop first when persistence is attached.
func (s *Server) handleDropDB(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.routeWrite(w, r, name) {
		return
	}
	ctx, tr := s.startTrace(r.Context(), "drop")
	defer s.finishTrace(tr)
	tr.SetStr("db", name)
	removed, err := s.remove(ctx, fromClient, name, 0)
	if err != nil {
		s.cfg.Logger.Printf("event=drop_db_failed name=%s err=%q", name, err)
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if removed == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no database %q", name))
		return
	}
	s.cfg.Logger.Printf("event=drop_db name=%s gen=%d", name, removed.gen)
	writeJSON(w, http.StatusOK, map[string]any{"dropped": name, "generation": removed.gen})
}

// handleListDBs lists the registered databases.
func (s *Server) handleListDBs(w http.ResponseWriter, r *http.Request) {
	type row struct {
		Name         string    `json:"name"`
		Generation   uint64    `json:"generation"`
		Vertices     int       `json:"vertices"`
		RegisteredAt time.Time `json:"registered_at"`
	}
	entries := s.dbs.list()
	rows := make([]row, len(entries))
	for i, e := range entries {
		rows[i] = row{Name: e.name, Generation: e.gen, Vertices: e.db.NumVertices(), RegisteredAt: e.registeredAt}
	}
	writeJSON(w, http.StatusOK, map[string]any{"databases": rows})
}

// handleMeasures parses a query and reports its structural measures and
// regime classification without evaluating it. Body: {"query": "..."} or
// raw query text.
func (s *Server) handleMeasures(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	text := string(body)
	var req struct {
		Query string `json:"query"`
	}
	if json.Unmarshal(body, &req) == nil && req.Query != "" {
		text = req.Query
	}
	if strings.TrimSpace(text) == "" {
		writeError(w, http.StatusBadRequest, "empty query")
		return
	}
	q, hash, err := s.parsed(r.Context(), text)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	p, err := core.Prepare(q, s.coreOptions(core.Auto))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	m := p.Measures()
	writeJSON(w, http.StatusOK, map[string]any{
		"query_hash":      hash,
		"auto_strategy":   p.Strategy().String(),
		"cc_vertex":       m.CCVertex,
		"cc_hedge":        m.CCHedge,
		"treewidth_lower": m.TreewidthLower,
		"treewidth_upper": m.TreewidthUpper,
		"treewidth_exact": m.TreewidthExact,
	})
}

// serveRead is the one read-request pipeline: /v1/query, /v1/explain and
// /v1/enumerate are the same admission and evaluation problem and differ
// only in their readOp. Stages, in order, each with its refusal: drain
// (503), quota and shed (429), body (413/400), strategy (400), parse (400),
// locate (forward / 404 / 503 CORRUPT_LOCAL), the op's own check, memory
// reservation (429 RESOURCE_EXHAUSTED or the degraded answer), pool
// admission (429 OVERLOADED), then the wait for the worker (504 / 499 /
// writeEvalError).
func (s *Server) serveRead(op *readOp) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeDraining(w)
			return
		}
		if !s.admitClient(w, r) {
			return
		}
		c := new(readCall)
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&c.readRequest); err != nil {
			writeBodyError(w, "decoding request", err)
			return
		}
		var err error
		if c.strat, c.stratName, err = parseStrategy(c.Strategy); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		tctx, tr := s.startTrace(r.Context(), op.name)
		defer s.finishTrace(tr)
		tr.SetStr("db", c.DB)
		tr.SetStr("strategy_requested", c.stratName)
		if c.q, c.hash, err = s.parsed(tctx, c.Query); err != nil {
			// Parser errors carry the offending line ("query: line N: ...").
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		// Locate. Not held here, or held but quarantined (never evaluate over
		// content the integrity subsystem has flagged): in cluster mode the
		// read is relayed to a healthy holder — one hop only, and with the
		// cursor verbatim, since generations match cluster-wide and the
		// serving holder validates it.
		var held bool
		if c.entry, held = s.dbs.get(c.DB); !held || c.entry.quar != nil {
			if cl := s.clu.Load(); cl != nil && !c.Forwarded {
				s.forward(tctx, cl, w, op, c.readRequest)
			} else if held {
				s.refuseCorrupt(w, c.entry)
			} else {
				writeError(w, http.StatusNotFound, fmt.Sprintf("no database %q (register with POST /v1/dbs/{name})", c.DB))
			}
			return
		}
		tr.SetStr("query_hash", c.hash)
		if op.check != nil && !op.check(w, c) {
			return
		}

		timeout := s.clampTimeout(c.TimeoutMs)
		ctx, cancel := context.WithTimeout(tctx, timeout)
		defer cancel()

		// Admission memory reservation: claim the per-query floor from the
		// process ledger before any evaluation work. The evaluation grows the
		// reservation through ctx as it allocates; denial at either point is a
		// structured 429 (or a degraded satisfiability answer), never an OOM.
		rsp := tr.Start("govern/reserve")
		res, rerr := s.broker.Reserve(s.cfg.QueryReserveBytes)
		rsp.End()
		if rerr != nil {
			s.memoryDenied(w, tr, op, c, "admission", "insufficient memory budget to admit "+op.name+": "+rerr.Error())
			return
		}
		ctx = govern.NewContext(ctx, res)

		op.total.Inc()
		s.inflight.Add(1)
		s.mInflight.Inc()
		defer func() {
			s.inflight.Add(-1)
			s.mInflight.Dec()
		}()

		done, admitted := s.dispatch(ctx, tr, res, op, c)
		if !admitted {
			res.Release()
			s.mRejected.Inc()
			w.Header().Set("Retry-After", "1")
			writeErrorCode(w, http.StatusTooManyRequests, "OVERLOADED",
				"server at capacity, try again later")
			return
		}

		select {
		case out := <-done:
			if out.err != nil {
				s.writeEvalError(w, tr, op, c, out.err, timeout)
				return
			}
			tr.SetInt("mem_peak_bytes", res.Peak())
			writeJSON(w, http.StatusOK, out.resp)
		case <-ctx.Done():
			// The worker observes the same ctx and will abandon the evaluation;
			// the buffered done channel lets it exit without a receiver.
			s.writeEvalError(w, tr, op, c, ctx.Err(), timeout)
		}
	}
}

// clampTimeout is a request's deadline: its own timeout_ms or the default,
// capped at the configured maximum. A forwarding node bounds the hop by the
// same figure plus a margin.
func (s *Server) clampTimeout(timeoutMs int64) time.Duration {
	t := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		t = time.Duration(timeoutMs) * time.Millisecond
	}
	return min(t, s.cfg.MaxTimeout)
}

// statusClientClosedRequest is nginx's convention for a client that went
// away before the response was ready.
const statusClientClosedRequest = 499

// admitClient runs the pre-parse admission gates shared by the
// evaluation endpoints: the per-client quota (an over-quota client
// should cost the server as close to nothing as possible) and adaptive
// shedding (when queue wait or reserved memory is past its threshold,
// low-priority work is turned away so normal and high priority queries
// keep their latency). Returns false with the refusal already written.
func (s *Server) admitClient(w http.ResponseWriter, r *http.Request) bool {
	if s.quota != nil {
		client := r.Header.Get("X-Ecrpq-Client")
		if client == "" {
			client = "anonymous"
		}
		if ok, retryAfter := s.quota.Allow(client); !ok {
			s.mQuotaDenied.Inc()
			secs := int64(retryAfter / time.Second)
			if retryAfter%time.Second != 0 {
				secs++
			}
			w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
			writeErrorCode(w, http.StatusTooManyRequests, "QUOTA_EXCEEDED",
				fmt.Sprintf("client %q exceeded its request quota", client))
			return false
		}
	}
	if shed, reason := s.shedder.ShouldShed(govern.ParsePriority(r.Header.Get("X-Ecrpq-Priority"))); shed {
		s.mShed.Inc()
		w.Header().Set("Retry-After", "2")
		writeErrorCode(w, http.StatusTooManyRequests, "SHED",
			"server overloaded ("+reason+"), low-priority work is being shed")
		return false
	}
	return true
}

// evalOutcome carries a pool worker's result back to the request
// goroutine.
type evalOutcome struct {
	resp any
	err  error
}

// dispatch submits the call to the worker pool under the request's memory
// reservation. The reservation is released on every worker exit —
// success, error, panic, and drop-at-dequeue alike — so a wedged ledger
// can never outlive its query, and released *before* the outcome is
// published, so a caller holding its answer never sees the request still on
// the ledger. Returns admitted=false when the pool is full; the caller then
// releases the reservation and answers 429.
func (s *Server) dispatch(ctx context.Context, tr *trace.Trace, res *govern.Reservation, op *readOp, c *readCall) (<-chan evalOutcome, bool) {
	done := make(chan evalOutcome, 1)
	submitted := time.Now()
	admitted := s.pool.trySubmitJob(poolJob{
		ctx:       ctx,
		submitted: submitted,
		run: func() {
			// The queue-wait span covers submit → dequeue: backdated to the
			// submit instant and ended as soon as a worker picks the job up.
			tr.StartAt("pool/queue_wait", submitted).End()
			var out evalOutcome
			// Pool workers run outside wrap's recovery (the request goroutine
			// is parked on the done channel), so an invariant violation raised
			// during evaluation must be caught here or it kills the process.
			defer func() {
				if rec := recover(); rec != nil {
					out = evalOutcome{nil, s.recovered(rec, "where=pool_worker")}
				}
				res.Release()
				done <- out
			}()
			out.resp, out.err = op.run(ctx, c)
		},
		// Dropped at dequeue (deadline passed while queued): the request
		// goroutine is already answering via ctx.Done, only the ledger
		// claim needs returning.
		drop: res.Release,
	})
	return done, admitted
}

// writeEvalError maps a worker error (or the request context's own, when
// it ended first) to the daemon's typed responses.
func (s *Server) writeEvalError(w http.ResponseWriter, tr *trace.Trace, op *readOp, c *readCall, err error, timeout time.Duration) {
	tr.SetStr("error", err.Error())
	var viol *invariant.Violation
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.mTimeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, fmt.Sprintf("%s exceeded its %s deadline", op.name, timeout))
	case errors.Is(err, context.Canceled):
		writeError(w, statusClientClosedRequest, "request cancelled")
	case errors.Is(err, govern.ErrResourceExhausted):
		// The evaluation outgrew the memory budget mid-flight and unwound
		// cleanly; the reservation is already released.
		s.memoryDenied(w, tr, op, c, "evaluation", err.Error())
	case errors.As(err, &viol):
		writeError(w, http.StatusInternalServerError, "internal invariant violation: "+viol.Msg)
	default:
		s.mErrors.Inc()
		writeError(w, http.StatusUnprocessableEntity, err.Error())
	}
}

// memoryDenied answers a ledger refusal, at admission or mid-evaluation
// (reason): the satisfiability-only fallback where the op has one and it is
// enabled, else the structured 429. The paper's satisfiability decision
// needs no per-database materialization, so it runs in near-constant
// memory; the answer is db-independent (does the query hold on SOME
// database), which the response flags via degraded=true with no witness or
// answer set.
func (s *Server) memoryDenied(w http.ResponseWriter, tr *trace.Trace, op *readOp, c *readCall, reason, msg string) {
	s.mResourceDenied.Inc()
	if op.degraded && s.cfg.DegradedFallback {
		sp := tr.Start("server/degraded")
		_, _, sat, err := core.Satisfiable(c.q)
		sp.End()
		if err == nil {
			s.mDegraded.Inc()
			tr.SetStr("degraded", reason)
			writeJSON(w, http.StatusOK, &queryResponse{
				Sat: sat, Strategy: "satisfiability", Cache: "bypass", QueryHash: c.hash,
				Degraded: true, DegradedReason: reason,
			})
			return
		}
	}
	w.Header().Set("Retry-After", "2")
	writeErrorCode(w, http.StatusTooManyRequests, "RESOURCE_EXHAUSTED", msg)
}

// parsedText is what the request-text memo keeps for one query text.
type parsedText struct {
	q    *query.Query
	hash string // query.Hash(q)
}

// parsed maps a query text to its parsed query and canonical hash through
// the request-text memo: a plan-cache entry under the "text"
// pseudo-strategy, keyed by the exact text and charged at the text plus its
// relation automata, so it is bounded, evicted and ledger-charged like a
// plan. A repeated text costs one probe — no lexer, no regex compilation,
// no NFA serialisation. The pair depends on the text alone (generation 0:
// a re-registered database invalidates nothing); the query is shared by
// every request that sends the text and is never modified. A parse error is
// not kept: the 400 is cheap to reproduce and must not push plans out.
func (s *Server) parsed(ctx context.Context, text string) (*query.Query, string, error) {
	ctx, sp := trace.StartSpan(ctx, "server/parse")
	defer sp.End()
	key := plancache.Key{QueryHash: text, Strategy: "text"}
	if v, ok := s.cacheGet(ctx, key); ok {
		s.mParseMemoHits.Inc()
		sp.SetStr("text_memo", "hit")
		pt := v.(*parsedText)
		return pt.q, pt.hash, nil
	}
	s.mParseMemoMisses.Inc()
	sp.SetStr("text_memo", "miss")
	q, err := query.ParseString(text)
	if err != nil {
		return nil, "", err
	}
	pt := &parsedText{q: q, hash: query.Hash(q)}
	size := 256 + len(text) + 64*len(q.Reach)
	for _, ra := range q.Rels {
		states, trans := ra.Rel.Size()
		size += 128 + 32*states + 48*trans
	}
	s.cachePut(ctx, key, pt, size)
	return pt.q, pt.hash, nil
}

// planDecision resolves "auto" for the call's (query, database) through
// the cost-based planner and memoizes the result under the "auto"
// pseudo-strategy at the entry's generation — the decision depends on the
// statistics catalog, so a re-registered database (new generation, new
// stats) naturally invalidates it, while repeat queries skip Explain and
// Resolve entirely. With no catalog the planner falls back to the fixed
// track-count rule (Decision.UsedFallback), keeping execution and EXPLAIN
// in agreement either way.
func (s *Server) planDecision(ctx context.Context, c *readCall) (*planner.Decision, error) {
	key := plancache.Key{QueryHash: c.hash, Strategy: "auto", DBGen: c.entry.gen}
	if v, ok := s.cacheGet(ctx, key); ok {
		if d, ok := v.(*planner.Decision); ok {
			return d, nil
		}
	}
	_, sp := trace.StartSpan(ctx, "planner/resolve")
	plan, err := core.Explain(c.q, s.coreOptions(core.Auto))
	if err != nil {
		sp.End()
		return nil, err
	}
	d := planner.Resolve(c.entry.stats, plan, s.coreOptions(core.Auto), planner.Config{})
	sp.End()
	size := 256 + 8*len(d.ComponentOrder) + 128*len(d.Stages)
	s.cachePut(ctx, key, d, size)
	return d, nil
}

// resolvedPlan is what a worker runs for one call.
type resolvedPlan struct {
	prepared *core.Prepared
	// dec is the planner's decision, non-nil exactly when "auto" was asked,
	// so callers can apply its ordering and pushdown hints and EXPLAIN can
	// report the same resolution execution used.
	dec *planner.Decision
	// mat is the Lemma 4.3 materialization over the call's database, when
	// one was asked for and the strategy is Reduction.
	mat      *core.Materialization
	strategy string // resolved: never "auto"
	cache    string // hit | partial (plan hit, materialization built) | miss
}

// matUse is what resolvePlan does about a Reduction plan's Lemma 4.3
// materialisation.
type matUse int

const (
	matNone   matUse = iota // nothing: a streamed query never materializes
	matCached               // read it from the plan cache at the entry's generation, or build and put it
	matOwn                  // build one for this call alone, neither read from nor written to the cache
)

// resolvePlan is the one worker-side plan resolution: the compiled plan
// for the call through the plan cache — "auto" going through planDecision
// — and, as use says, the database-generational materialization beside
// it; then the accounting every caller owes (request hit/miss counters,
// per-database attribution, the plan snapshot on the trace that the
// slow-query log reports). Plans are keyed by the *resolved* strategy at
// generation 0 (compilation is db-independent), so the same query
// requested via "auto" and via the strategy the planner picks shares one
// plan. A cached materialization of a Boolean query carries its decided
// answer: that hit is counted in answer_memo_hits_total and marked
// answer=memo on the trace.
func (s *Server) resolvePlan(ctx context.Context, c *readCall, use matUse) (rp resolvedPlan, err error) {
	rp.strategy, rp.cache = c.stratName, "hit"
	opts := s.coreOptions(c.strat)
	if c.strat == core.Auto {
		if rp.dec, err = s.planDecision(ctx, c); err != nil {
			return rp, err
		}
		opts.Strategy = rp.dec.Strategy
		rp.strategy = opts.Strategy.String()
	}
	planKey := plancache.Key{QueryHash: c.hash, Strategy: rp.strategy}
	if v, ok := s.cacheGet(ctx, planKey); ok {
		rp.prepared = v.(*core.Prepared)
	} else {
		rp.cache = "miss"
		if rp.prepared, err = core.PrepareContext(ctx, c.q, opts); err != nil {
			return rp, err
		}
		s.cachePut(ctx, planKey, rp.prepared, rp.prepared.MemBytes())
	}
	tr := trace.FromContext(ctx)
	if use != matNone && rp.prepared.Strategy() == core.Reduction {
		matKey := plancache.Key{QueryHash: c.hash, Strategy: rp.strategy, DBGen: c.entry.gen}
		if use == matCached {
			if v, ok := s.cacheGet(ctx, matKey); ok {
				rp.mat = v.(*core.Materialization)
				if len(c.q.Free) == 0 {
					s.mAnswerMemoHits.Inc()
					tr.SetStr("answer", "memo")
				}
			}
		}
		if rp.mat == nil {
			if rp.cache == "hit" {
				rp.cache = "partial"
			}
			if rp.mat, err = rp.prepared.Materialize(ctx, c.entry.db); err != nil {
				return rp, err
			}
			if use == matCached {
				s.cachePut(ctx, matKey, rp.mat, rp.mat.MemBytes())
			}
		}
	}
	tr.SetStr("strategy", rp.strategy)
	tr.SetStr("cache", rp.cache)
	m := rp.prepared.Measures()
	tr.SetInt("cc_vertex", int64(m.CCVertex))
	tr.SetInt("treewidth_upper", int64(m.TreewidthUpper))
	if rp.cache == "hit" {
		s.mCacheHits.Inc()
	} else {
		s.mCacheMisses.Inc()
	}
	s.noteDBCacheRequest(c.entry.name, rp.cache == "hit")
	return rp, nil
}

// planHints turns a planner decision into evaluation hints for one
// database. Only the Generic strategy consumes hints (ordering and
// source-vertex pushdown); for Reduction the decision already did its job
// by picking the strategy.
func (s *Server) planHints(dec *planner.Decision, prepared *core.Prepared, db *graphdb.DB) *core.PlanHints {
	if dec == nil || prepared.Strategy() != core.Generic {
		return nil
	}
	h := &core.PlanHints{ComponentOrder: dec.ComponentOrder}
	if dec.Pushdown {
		h.Candidates = prepared.PushdownCandidates(db)
	}
	if h.ComponentOrder == nil && h.Candidates == nil {
		return nil
	}
	return h
}

// vertexNames renders answer tuples of vertex ids by name.
func vertexNames(db *graphdb.DB, tuples [][]int) [][]string {
	named := make([][]string, len(tuples))
	for i, tup := range tuples {
		row := make([]string, len(tup))
		for j, v := range tup {
			row[j] = db.VertexName(v)
		}
		named[i] = row
	}
	return named
}

// evaluate runs on a pool worker: plan-cache lookup/population, then
// evaluation under ctx. A Boolean query over a cached materialization reads
// the answer Materialize decided; a free-variable query resolves its plan
// exactly as a Boolean one does and asks it for the answer set; like
// /v1/enumerate it takes the planner's strategy but not its hints, which
// only steer a first-witness search.
func (s *Server) evaluate(ctx context.Context, c *readCall, use matUse) (*queryResponse, error) {
	start := time.Now()
	db := c.entry.db
	rp, err := s.resolvePlan(ctx, c, use)
	if err != nil {
		return nil, err
	}
	resp := &queryResponse{Strategy: rp.strategy, Cache: rp.cache, QueryHash: c.hash}
	if len(c.q.Free) > 0 {
		answers, err := rp.prepared.Answers(ctx, db, rp.mat)
		if err != nil {
			return nil, err
		}
		resp.Sat = len(answers) > 0
		resp.Answers = vertexNames(db, answers)
		resp.Free = c.q.Free
	} else {
		res, err := rp.prepared.EvaluateContextHinted(ctx, db, rp.mat, s.planHints(rp.dec, rp.prepared, db))
		if err != nil {
			return nil, err
		}
		resp.Sat = res.Sat
		resp.Stats = res.Stats
		if res.Sat {
			resp.Nodes = make(map[string]string, len(res.Nodes))
			for v, vertex := range res.Nodes {
				resp.Nodes[v] = db.VertexName(vertex)
			}
			resp.Paths = make(map[string]string, len(res.Paths))
			for p, path := range res.Paths {
				resp.Paths[p] = path.Format(db)
			}
		}
	}
	elapsed := time.Since(start)
	s.mEvalLatency.Observe(elapsed)
	if n, ok := s.mStrategy[rp.strategy]; ok {
		n.Inc()
	}
	resp.ElapsedMs = float64(elapsed.Microseconds()) / 1000
	return resp, nil
}
