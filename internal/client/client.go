// Package client is the fault-tolerant HTTP client for ecrpqd, used by
// ecrpq-shell's remote mode and the ecrpqd -check probe. It wraps the
// daemon's JSON API with:
//
//   - exponential backoff with full jitter on transient failures
//     (transport errors, 429, 502, 503, 504), honoring Retry-After;
//   - a strict idempotency rule: only requests that are safe to repeat
//     (health, list, query, measures, drop) are retried — registration is
//     not, because each attempt allocates a generation and invalidates
//     cached materializations;
//   - a total retry budget (wall-clock cap across all attempts of one
//     call) on top of the per-call context deadline;
//   - a consecutive-failure circuit breaker with a half-open probe, so a
//     down server costs one failed request per cooldown instead of a
//     retry storm.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Config tunes a Client. The zero value of every field gets a sensible
// default from New; only BaseURL is required.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8377".
	BaseURL string
	// HTTPClient is the transport (default: http.Client with a 2-minute
	// overall timeout; per-call contexts bound individual requests).
	HTTPClient *http.Client
	// MaxRetries is the number of re-attempts after the first try
	// (default 4).
	MaxRetries int
	// BaseDelay seeds the exponential backoff (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep (default 5s).
	MaxDelay time.Duration
	// RetryBudget caps the total time spent sleeping between retries of
	// one call (default 30s).
	RetryBudget time.Duration
	// QuotaRetryBudget caps the sleep attributable to 429 responses
	// (quota, memory budget, shed) within one call, separately from
	// RetryBudget (default 10s). A 429 means the server chose to refuse
	// this client or this query — grinding through the full transient
	// budget would just re-spend quota — while 5xx-class failures keep
	// the larger budget because the server never saw or never finished
	// the work.
	QuotaRetryBudget time.Duration
	// BreakerThreshold is how many consecutive 5xx-class failures trip the
	// circuit breaker (default 5; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before letting a
	// half-open probe through (default 10s).
	BreakerCooldown time.Duration
}

// StatusError is a non-2xx daemon response, carrying the HTTP status, the
// server's error message, its machine-readable code (RESOURCE_EXHAUSTED,
// QUOTA_EXCEEDED, SHED, OVERLOADED; empty for responses without one), and
// any Retry-After hint.
type StatusError struct {
	Code       int
	ErrCode    string
	Msg        string
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.ErrCode != "" {
		return fmt.Sprintf("client: server returned %d %s: %s", e.Code, e.ErrCode, e.Msg)
	}
	return fmt.Sprintf("client: server returned %d: %s", e.Code, e.Msg)
}

// Temporary reports whether the status is a transient condition worth
// retrying (overload, drain, or an upstream timeout).
func (e *StatusError) Temporary() bool {
	switch e.Code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Client is a fault-tolerant ecrpqd API client. Safe for concurrent use.
type Client struct {
	base    string
	http    *http.Client
	cfg     Config
	breaker *breaker

	// Injectable for deterministic tests.
	rnd   func() float64
	sleep func(ctx context.Context, d time.Duration) error
	now   func() time.Time

	mu      sync.Mutex
	retries uint64 // total retry attempts performed (observability)
}

// New returns a client for the daemon at cfg.BaseURL.
func New(cfg Config) *Client {
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: 2 * time.Minute}
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 4
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 100 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 5 * time.Second
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 30 * time.Second
	}
	if cfg.QuotaRetryBudget <= 0 {
		cfg.QuotaRetryBudget = 10 * time.Second
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 10 * time.Second
	}
	now := time.Now
	c := &Client{
		base: strings.TrimRight(cfg.BaseURL, "/"),
		http: cfg.HTTPClient,
		cfg:  cfg,
		rnd:  rand.Float64,
		now:  now,
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		},
	}
	if cfg.BreakerThreshold > 0 {
		c.breaker = &breaker{threshold: cfg.BreakerThreshold, cooldown: cfg.BreakerCooldown, now: now}
	}
	return c
}

// backoffDelay computes the attempt'th retry sleep: full jitter over an
// exponentially growing window, capped at MaxDelay ("Full Jitter" from the
// AWS architecture blog — the variant that best de-correlates synchronized
// retry storms).
func (c *Client) backoffDelay(attempt int) time.Duration {
	window := c.cfg.BaseDelay << uint(attempt)
	if window > c.cfg.MaxDelay || window <= 0 {
		window = c.cfg.MaxDelay
	}
	return time.Duration(c.rnd() * float64(window))
}

// parseRetryAfter reads a Retry-After header (delta-seconds or HTTP-date).
// The result is never negative: a negative delta-seconds value or an
// HTTP-date in the past clamps to zero, because a negative duration fed
// into the backoff arithmetic would shorten the computed delay and
// corrupt the retry-budget accounting.
func parseRetryAfter(h string, now time.Time) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(strings.TrimSpace(h)); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d
	}
	return 0
}

// do performs one API call with the retry/breaker policy. body is re-sent
// from the byte slice on every attempt; out (when non-nil) receives the
// decoded 2xx JSON body.
func (c *Client) do(ctx context.Context, method, path string, body []byte, idempotent bool, out any) error {
	var slept, sleptQuota time.Duration
	for attempt := 0; ; attempt++ {
		if c.breaker != nil {
			if err := c.breaker.allow(); err != nil {
				return err
			}
		}
		statusErr, transportErr := c.once(ctx, method, path, body, out)
		if transportErr == nil && statusErr == nil {
			if c.breaker != nil {
				c.breaker.onSuccess()
			}
			return nil
		}
		var retryAfter time.Duration
		var err error
		if transportErr != nil {
			if c.breaker != nil {
				c.breaker.onFailure()
			}
			err = transportErr
		} else {
			if c.breaker != nil {
				if statusErr.Code >= 500 {
					c.breaker.onFailure()
				} else {
					c.breaker.onSuccess()
				}
			}
			err = statusErr
			retryAfter = statusErr.RetryAfter
		}
		retryable := idempotent && attempt < c.cfg.MaxRetries &&
			(transportErr != nil || statusErr.Temporary())
		if !retryable || ctx.Err() != nil {
			return err
		}
		delay := c.backoffDelay(attempt)
		if retryAfter > delay {
			delay = retryAfter
		}
		// 429s spend their own, tighter budget: the server refused this
		// client on purpose, so a long grind of re-sends only burns more
		// of its quota or memory budget. 5xx and transport failures keep
		// the full transient budget.
		quotaDenied := statusErr != nil && statusErr.Code == http.StatusTooManyRequests
		if quotaDenied && sleptQuota+delay > c.cfg.QuotaRetryBudget {
			return fmt.Errorf("client: quota-retry budget %s exhausted after %d attempt(s): %w",
				c.cfg.QuotaRetryBudget, attempt+1, err)
		}
		if slept+delay > c.cfg.RetryBudget {
			return fmt.Errorf("client: retry budget %s exhausted after %d attempt(s): %w",
				c.cfg.RetryBudget, attempt+1, err)
		}
		if err := c.sleep(ctx, delay); err != nil {
			return err
		}
		slept += delay
		if quotaDenied {
			sleptQuota += delay
		}
		c.mu.Lock()
		c.retries++
		c.mu.Unlock()
	}
}

// once performs a single HTTP attempt. Exactly one of the returns is
// non-nil on failure; (nil, nil) is success with out populated.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) (*StatusError, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("client: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("client: reading response: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		msg := strings.TrimSpace(string(raw))
		var e struct {
			Error   string `json:"error"`
			ErrCode string `json:"code"`
		}
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &StatusError{
			Code:       resp.StatusCode,
			ErrCode:    e.ErrCode,
			Msg:        msg,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), c.now()),
		}, nil
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return nil, fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
		}
	}
	return nil, nil
}

// call marshals req, POSTs it to path under the retry policy (every JSON
// call of the API is safe to repeat) and decodes the 2xx body into out.
func (c *Client) call(ctx context.Context, path string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("client: encoding %s request: %w", path, err)
	}
	return c.do(ctx, http.MethodPost, path, body, true, out)
}

// Read posts a read request to path (/v1/query, /v1/explain or
// /v1/enumerate) and returns the success body undecoded. It is what a
// cluster node relaying a read uses: the caller gets the holder's answer
// byte for byte, not this package's idea of its fields.
func (c *Client) Read(ctx context.Context, path string, req any) (json.RawMessage, error) {
	var out json.RawMessage
	err := c.call(ctx, path, req, &out)
	return out, err
}

// --- API surface ---

// Health is the GET /healthz body.
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Databases     int     `json:"databases"`
	Inflight      int64   `json:"inflight"`
}

// Health probes the daemon's liveness. Retried: a starting-up or draining
// daemon answers eventually/elsewhere.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, true, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Ready probes the daemon's readiness (GET /readyz): 200 means the node
// is accepting work, 503 means it is up but draining. Cluster probers use
// this instead of Health because a draining node must be routed around
// exactly like a dead one. Retried under the client's policy; failure
// detectors should configure MaxRetries: -1 so one probe is one verdict.
func (c *Client) Ready(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.do(ctx, http.MethodGet, "/readyz", nil, true, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// DBInfo is one row of GET /v1/dbs.
type DBInfo struct {
	Name         string    `json:"name"`
	Generation   uint64    `json:"generation"`
	Vertices     int       `json:"vertices"`
	RegisteredAt time.Time `json:"registered_at"`
}

// ListDBs lists the registered databases. Retried (read-only).
func (c *Client) ListDBs(ctx context.Context) ([]DBInfo, error) {
	var out struct {
		Databases []DBInfo `json:"databases"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/dbs", nil, true, &out); err != nil {
		return nil, err
	}
	return out.Databases, nil
}

// RegisterResult is the POST /v1/dbs/{name} response.
type RegisterResult struct {
	Name       string `json:"name"`
	Generation uint64 `json:"generation"`
	Vertices   int    `json:"vertices"`
	Replaced   bool   `json:"replaced"`
}

// RegisterDB registers or replaces a database from its text format. NOT
// retried: each attempt allocates a fresh generation and invalidates
// cached materializations, so blind re-sends are the caller's decision.
func (c *Client) RegisterDB(ctx context.Context, name, text string) (*RegisterResult, error) {
	var out RegisterResult
	if err := c.do(ctx, http.MethodPost, "/v1/dbs/"+url.PathEscape(name), []byte(text), false, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DropDB removes a database. Retried: DELETE is idempotent (a retry that
// lands after a success gets a 404, which the caller can treat as done).
func (c *Client) DropDB(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/dbs/"+url.PathEscape(name), nil, true, nil)
}

// QueryRequest is the POST /v1/query body. Forwarded marks one
// cluster-internal routing hop: a node that receives a forwarded request
// for a database it does not hold answers 404 instead of forwarding
// again, so a stale ring view cannot create a routing loop.
type QueryRequest struct {
	DB        string `json:"db"`
	Query     string `json:"query"`
	Strategy  string `json:"strategy,omitempty"`
	TimeoutMs int64  `json:"timeout_ms,omitempty"`
	Forwarded bool   `json:"fwd,omitempty"`
}

// QueryResponse mirrors the daemon's success body. Stats stays raw JSON so
// the client does not depend on the engine's stats shape.
type QueryResponse struct {
	Sat       bool              `json:"sat"`
	Strategy  string            `json:"strategy"`
	Cache     string            `json:"cache"`
	QueryHash string            `json:"query_hash"`
	Nodes     map[string]string `json:"nodes,omitempty"`
	Paths     map[string]string `json:"paths,omitempty"`
	Answers   [][]string        `json:"answers,omitempty"`
	Free      []string          `json:"free,omitempty"`
	Stats     json.RawMessage   `json:"stats"`
	ElapsedMs float64           `json:"elapsed_ms"`
	// Degraded marks a satisfiability-only fallback answer: the server's
	// memory budget could not cover the evaluation, so Sat is the
	// db-independent decision (does the query hold on SOME database) and no
	// witness or answer set is included. DegradedReason is "admission" or
	// "evaluation".
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// Query evaluates a query. Retried: evaluation is read-only, so repeating
// a timed-out or shed request is safe.
func (c *Client) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	var out QueryResponse
	if err := c.call(ctx, "/v1/query", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// EnumerateRequest is the POST /v1/enumerate body. Cursor resumes a
// previous page's NextCursor; empty starts from the first answer.
type EnumerateRequest struct {
	DB        string `json:"db"`
	Query     string `json:"query"`
	Strategy  string `json:"strategy,omitempty"`
	Limit     int    `json:"limit,omitempty"`
	Cursor    string `json:"cursor,omitempty"`
	TimeoutMs int64  `json:"timeout_ms,omitempty"`
	Forwarded bool   `json:"fwd,omitempty"`
}

// EnumerateResponse is one page of answers.
type EnumerateResponse struct {
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

// Enumerate fetches one page of a streamed answer enumeration. Retried
// with GET-like semantics: a page read is read-only and the enumeration
// order is deterministic server-side, so re-sending the same cursor
// after a timeout or shed returns the same page, never a skipped or
// doubled one. A 410 STALE_CURSOR (database re-registered mid-
// enumeration) is not transient and surfaces immediately as a
// *StatusError for the caller to restart from the first page.
func (c *Client) Enumerate(ctx context.Context, req EnumerateRequest) (*EnumerateResponse, error) {
	var out EnumerateResponse
	if err := c.call(ctx, "/v1/enumerate", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ReplicateRecord is one journal record shipped between cluster nodes:
// the owner pushes it to replicas after committing locally (POST
// /v1/replicate), and catch-up pulls return the same shape. Snapshot is
// the registration's internal/persist snapshot file (base64 in JSON); it
// is empty for drops. Its footer carries the owner's statistics catalog,
// so replicas cost plans from the same numbers and EXPLAIN agrees
// cluster-wide, and its content digest, which replicas verify the decoded
// database against before installing: a corrupted ship can never
// silently install divergent state.
type ReplicateRecord struct {
	Op       string `json:"op"` // "register" | "drop"
	Name     string `json:"name"`
	Gen      uint64 `json:"gen"`
	UnixNano int64  `json:"unix_nano,omitempty"`
	Snapshot []byte `json:"snapshot,omitempty"`
}

// ReplicateResult reports what the replica did with a shipped record.
type ReplicateResult struct {
	Applied bool   `json:"applied"`
	Reason  string `json:"reason,omitempty"` // e.g. "stale" when the replica is already at or past Gen
}

// Replicate ships one journal record to a replica. Retried: apply is
// generation-monotonic on the receiving side (a record at or below the
// replica's current generation is a no-op), so re-sending after a timeout
// can never double-apply or reorder.
func (c *Client) Replicate(ctx context.Context, rec ReplicateRecord) (*ReplicateResult, error) {
	var out ReplicateResult
	if err := c.call(ctx, "/v1/replicate", rec, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PullRequest asks an owner for the replication records the caller is
// missing. Node is the caller's cluster ID; Have maps each database the
// caller holds (among those the callee owns) to its local generation.
type PullRequest struct {
	Node string            `json:"node"`
	Have map[string]uint64 `json:"have"`
}

// PullResponse is the owner's catch-up answer: full records for every
// owned database the caller should hold but is missing or behind on, and
// the names the caller reported that the owner no longer has (the caller
// drops them).
type PullResponse struct {
	Records []ReplicateRecord `json:"records"`
	Absent  []string          `json:"absent,omitempty"`
}

// ReplicatePull performs one catch-up round-trip against an owner.
// Retried (read-only on the owner; apply on the caller is monotonic).
func (c *Client) ReplicatePull(ctx context.Context, req PullRequest) (*PullResponse, error) {
	var out PullResponse
	if err := c.call(ctx, "/v1/replicate/pull", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ExplainRequest is the POST /v1/explain body. Execute asks the server
// to also run the query and attach measured per-stage times next to the
// planner's estimates.
type ExplainRequest struct {
	DB        string `json:"db"`
	Query     string `json:"query"`
	Strategy  string `json:"strategy,omitempty"`
	Execute   bool   `json:"execute,omitempty"`
	TimeoutMs int64  `json:"timeout_ms,omitempty"`
	Forwarded bool   `json:"fwd,omitempty"`
}

// ExplainStage is one plan stage with the planner's cost estimate and,
// when the query was executed, the traced actual self-time and the
// stage's work counters.
type ExplainStage struct {
	Stage       string         `json:"stage"`
	Detail      string         `json:"detail,omitempty"`
	Cost        float64        `json:"cost"`
	EstimatedMs float64        `json:"estimated_ms"`
	ActualMs    float64        `json:"actual_ms,omitempty"`
	Measured    bool           `json:"measured,omitempty"`
	Attrs       map[string]any `json:"attrs,omitempty"`
}

// ExplainResponse is the chosen plan with its cost breakdown. Decision
// stays raw JSON so the client does not depend on the planner's shape.
type ExplainResponse struct {
	Strategy        string          `json:"strategy"`
	StrategySource  string          `json:"strategy_source"` // "planner" | "fixed-rule" | "requested"
	QueryHash       string          `json:"query_hash"`
	Generation      uint64          `json:"generation"`
	StatsGeneration uint64          `json:"stats_generation,omitempty"`
	StatsAgeSeconds float64         `json:"stats_age_seconds,omitempty"`
	Plan            string          `json:"plan"`
	Stages          []ExplainStage  `json:"stages,omitempty"`
	Decision        json.RawMessage `json:"decision,omitempty"`
	Executed        bool            `json:"executed,omitempty"`
	Sat             *bool           `json:"sat,omitempty"`
	ElapsedMs       float64         `json:"elapsed_ms"`
}

// Explain asks the server which plan it would (or did) run for a query.
// Retried (read-only; execute=true evaluations are idempotent).
func (c *Client) Explain(ctx context.Context, req ExplainRequest) (*ExplainResponse, error) {
	var out ExplainResponse
	if err := c.call(ctx, "/v1/explain", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// IntegrityInfo is the GET /v1/integrity/{db} response: the node's local
// generation and content digest for one database, plus its quarantine
// state. The anti-entropy sweep compares these pairs across holders.
type IntegrityInfo struct {
	DB          string `json:"db"`
	Gen         uint64 `json:"gen"`
	Digest      string `json:"digest"` // %016x content sum
	Quarantined bool   `json:"quarantined"`
}

// Integrity fetches a node's (generation, digest) pair for one database.
// Retried (read-only).
func (c *Client) Integrity(ctx context.Context, db string) (*IntegrityInfo, error) {
	var out IntegrityInfo
	if err := c.do(ctx, http.MethodGet, "/v1/integrity/"+url.PathEscape(db), nil, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Measures reports a query's structural measures. Retried (read-only).
func (c *Client) Measures(ctx context.Context, queryText string) (map[string]any, error) {
	var out map[string]any
	if err := c.call(ctx, "/v1/measures", map[string]string{"query": queryText}, &out); err != nil {
		return nil, err
	}
	return out, nil
}
