package server

// POST /v1/enumerate: paginated streaming answer enumeration. Where
// /v1/query materializes the full answer set in one response, this
// endpoint drives core's streaming Enumerate pipeline and returns one
// page per request, with an opaque resumable cursor. The server stays
// stateless between pages: the cursor encodes (query hash, database,
// generation, strategy, offset) and each page re-runs the enumeration,
// skipping offset tuples — cheap because the pipeline is lazy and the
// skipped prefix never materializes R' tables it does not touch. The
// compiled plan (not any materialization) is cached across pages, and
// the deterministic enumeration order guarantees page k+1 continues
// exactly where page k stopped.

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"ecrpq/internal/stream"
)

// enumerateResponse is one page of answers. More=true means NextCursor
// resumes the enumeration; a Boolean satisfiable query yields a single
// page with one empty tuple.
type enumerateResponse struct {
	Answers    [][]string `json:"answers"`
	Free       []string   `json:"free,omitempty"`
	Count      int        `json:"count"`
	More       bool       `json:"more"`
	NextCursor string     `json:"next_cursor,omitempty"`
	Strategy   string     `json:"strategy"`
	Cache      string     `json:"cache"`
	QueryHash  string     `json:"query_hash"`
	ElapsedMs  float64    `json:"elapsed_ms"`
}

// enumCursor is the decoded cursor. The generation pins the database
// snapshot the enumeration order is defined over: a re-registered
// database invalidates outstanding cursors (410 Gone) rather than
// silently splicing pages from two different graphs.
type enumCursor struct {
	Q   string `json:"q"` // query hash
	DB  string `json:"db"`
	Gen uint64 `json:"g"`
	S   string `json:"s"` // normalized requested strategy
	Off int    `json:"o"` // tuples already returned
}

func encodeCursor(c enumCursor) string {
	b, err := json.Marshal(c)
	if err != nil {
		// enumCursor marshals unconditionally; json.Marshal cannot fail here.
		return ""
	}
	return base64.RawURLEncoding.EncodeToString(b)
}

func decodeCursor(s string) (enumCursor, error) {
	var c enumCursor
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return c, fmt.Errorf("cursor is not base64url: %w", err)
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("cursor payload: %w", err)
	}
	return c, nil
}

// checkCursor is /v1/enumerate's pre-admission check: the cursor is
// validated against the request and the live database generation before
// any evaluation work is admitted. False means the refusal is written.
func (s *Server) checkCursor(w http.ResponseWriter, c *readCall) bool {
	if c.Cursor == "" {
		return true
	}
	cur, err := decodeCursor(c.Cursor)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return false
	}
	if cur.Q != c.hash || cur.DB != c.DB || cur.S != c.stratName || cur.Off < 0 {
		writeError(w, http.StatusBadRequest,
			"cursor does not belong to this query/database/strategy combination")
		return false
	}
	if cur.Gen != c.entry.gen {
		// The database was replaced since the cursor was minted: its
		// enumeration order no longer exists. Clients restart from the
		// first page.
		s.mStaleCursors.Inc()
		writeErrorCode(w, http.StatusGone, "STALE_CURSOR",
			fmt.Sprintf("database %q was re-registered (generation %d, cursor has %d); restart the enumeration",
				c.DB, c.entry.gen, cur.Gen))
		return false
	}
	c.offset = cur.Off
	return true
}

// enumerate runs on a pool worker: plan-cache lookup (plans only — a
// streamed query never materializes, so there is nothing db-generational
// to cache), then one lazy page of the enumeration.
func (s *Server) enumerate(ctx context.Context, c *readCall) (*enumerateResponse, error) {
	start := time.Now()
	limit := c.Limit
	if limit <= 0 {
		limit = s.cfg.EnumerateDefaultLimit
	}
	limit = min(limit, s.cfg.EnumerateMaxLimit)
	// The planner's decision (not its hints) applies here: strategy choice
	// is deterministic per generation, so the public enumeration order
	// stays cursor-stable, while ordering/pushdown hints are withheld —
	// they must never perturb the order pages are defined over.
	rp, err := s.resolvePlan(ctx, c, false)
	if err != nil {
		return nil, err
	}
	it, err := rp.prepared.Enumerate(ctx, c.entry.db)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	// limit+1 probes for a further page without a count query; the extra
	// tuple is dropped from the response.
	page := stream.Limit(stream.Offset(it, c.offset), limit+1)
	defer page.Close()
	rows, err := stream.Collect(page)
	if err != nil {
		return nil, err
	}
	more := len(rows) > limit
	if more {
		rows = rows[:limit]
	}
	elapsed := time.Since(start)
	s.mEvalLatency.Observe(elapsed)
	resp := &enumerateResponse{
		Answers:   vertexNames(c.entry.db, rows),
		Free:      c.q.Free,
		Count:     len(rows),
		More:      more,
		Strategy:  rp.strategy,
		Cache:     rp.cache,
		QueryHash: c.hash,
		ElapsedMs: float64(elapsed.Microseconds()) / 1000,
	}
	if more {
		resp.NextCursor = encodeCursor(enumCursor{
			Q: c.hash, DB: c.entry.name, Gen: c.entry.gen, S: c.stratName, Off: c.offset + limit,
		})
	}
	return resp, nil
}
