package server

// POST /v1/explain: report the plan the daemon would run for a query —
// the planner's strategy decision with per-stage cost estimates — and,
// with execute=true, actually run it and attach the measured per-stage
// self-times next to the estimates, so estimate-vs-actual error is
// visible in one payload. Explanation goes through the same planDecision
// path execution uses (one resolver, one answer): what EXPLAIN prints is
// by construction what /v1/query would do at the same generation.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"ecrpq/internal/core"
	"ecrpq/internal/govern"
	"ecrpq/internal/planner"
	"ecrpq/internal/query"
	"ecrpq/internal/trace"
)

// explainRequest is the POST /v1/explain body.
type explainRequest struct {
	DB       string `json:"db"`
	Query    string `json:"query"`
	Strategy string `json:"strategy"`
	// Execute runs the query after planning and reports measured stage
	// times alongside the estimates.
	Execute   bool  `json:"execute"`
	TimeoutMs int64 `json:"timeout_ms"`
	Forwarded bool  `json:"fwd,omitempty"`
}

// explainStage is one plan stage: the planner's estimate and, when the
// query was executed, the traced actual self-time for the same span name
// with the span's work counters (e.g. product_checks, traversals and
// states of core/product_search).
type explainStage struct {
	Stage       string         `json:"stage"`
	Detail      string         `json:"detail,omitempty"`
	Cost        float64        `json:"cost"`
	EstimatedMs float64        `json:"estimated_ms"`
	ActualMs    float64        `json:"actual_ms,omitempty"`
	Measured    bool           `json:"measured,omitempty"`
	Attrs       map[string]any `json:"attrs,omitempty"`
}

// explainResponse is the chosen plan with its cost breakdown.
type explainResponse struct {
	Strategy string `json:"strategy"`
	// StrategySource is "requested" (the client forced a strategy),
	// "planner" (cost-based decision), or "fixed-rule" (no statistics
	// catalog; the track-count rule decided).
	StrategySource  string            `json:"strategy_source"`
	QueryHash       string            `json:"query_hash"`
	Generation      uint64            `json:"generation"`
	StatsGeneration uint64            `json:"stats_generation,omitempty"`
	StatsAgeSeconds float64           `json:"stats_age_seconds,omitempty"`
	Plan            string            `json:"plan"`
	Stages          []explainStage    `json:"stages,omitempty"`
	Decision        *planner.Decision `json:"decision,omitempty"`
	Executed        bool              `json:"executed,omitempty"`
	Sat             *bool             `json:"sat,omitempty"`
	ElapsedMs       float64           `json:"elapsed_ms"`
}

// handleExplain mirrors handleQuery's admission (drain, quota, shed,
// memory reservation, worker pool): an execute=true explanation is a full
// evaluation and must compete like one, and even plan-only requests run
// Explain/Resolve work worth admitting.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeDraining(w)
		return
	}
	if !s.admitClient(w, r) {
		return
	}
	var req explainRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds the %d-byte limit", maxBodyBytes))
			return
		}
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	strat, stratName, err := parseStrategy(req.Strategy)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	tctx, tr := s.startTrace(r.Context(), "explain")
	defer s.finishTrace(tr)
	tr.SetStr("db", req.DB)
	tr.SetStr("strategy_requested", stratName)
	psp := tr.Start("server/parse")
	q, err := query.ParseString(req.Query)
	psp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	entry, ok := s.dbs.get(req.DB)
	if !ok {
		if c := s.clusterHandle(); c != nil && !req.Forwarded {
			s.forwardExplain(tctx, c, w, req)
			return
		}
		writeError(w, http.StatusNotFound, fmt.Sprintf("no database %q (register with POST /v1/dbs/{name})", req.DB))
		return
	}
	if s.isQuarantined(req.DB) {
		if c := s.clusterHandle(); c != nil && !req.Forwarded {
			s.forwardExplain(tctx, c, w, req)
			return
		}
		s.refuseCorrupt(w, req.DB)
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(tctx, timeout)
	defer cancel()

	rsp := tr.Start("govern/reserve")
	res, rerr := s.broker.Reserve(s.cfg.QueryReserveBytes)
	rsp.End()
	if rerr != nil {
		s.mResourceDenied.Inc()
		w.Header().Set("Retry-After", "2")
		writeErrorCode(w, http.StatusTooManyRequests, "RESOURCE_EXHAUSTED",
			"insufficient memory budget to admit explain: "+rerr.Error())
		return
	}
	ctx = govern.NewContext(ctx, res)

	s.inflight.Add(1)
	s.mInflight.Inc()
	defer func() {
		s.inflight.Add(-1)
		s.mInflight.Dec()
	}()

	done, admitted := s.dispatch(ctx, tr, res, func() (any, error) {
		return s.explain(ctx, entry, q, strat, stratName, req.Execute)
	})
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
			s.writeEvalError(w, tr, nil, out.err, timeout)
			return
		}
		writeJSON(w, http.StatusOK, out.resp)
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.mTimeouts.Inc()
			writeError(w, http.StatusGatewayTimeout,
				fmt.Sprintf("explain exceeded its %s deadline", timeout))
			return
		}
		writeError(w, statusClientClosedRequest, "request cancelled")
	}
}

// explain runs on a pool worker: resolve the plan (through the same
// cached decision execution uses), render its cost breakdown, and when
// execute is set run the evaluation under a dedicated trace and fold the
// measured stage self-times into the breakdown.
func (s *Server) explain(ctx context.Context, entry *dbEntry, q *query.Query, strat core.Strategy, stratName string, execute bool) (*explainResponse, error) {
	start := time.Now()
	hash := query.Hash(q)

	var dec *planner.Decision
	source := "requested"
	if strat == core.Auto {
		d, err := s.planDecision(ctx, entry, q, hash)
		if err != nil {
			return nil, err
		}
		dec = d
		if d.UsedFallback {
			source = "fixed-rule"
		} else {
			source = "planner"
		}
	} else {
		// A forced strategy is kept, but still costed so the operator sees
		// what the choice is expected to pay.
		plan, err := core.Explain(q, s.coreOptions(strat))
		if err != nil {
			return nil, err
		}
		dec = planner.Resolve(entry.stats, plan, s.coreOptions(strat), s.cfg.Planner)
	}

	// The rendered plan reflects the resolved strategy, not the fixed
	// rule's idea of "auto".
	plan, err := core.Explain(q, s.coreOptions(dec.Strategy))
	if err != nil {
		return nil, err
	}

	resp := &explainResponse{
		Strategy:        dec.Strategy.String(),
		StrategySource:  source,
		QueryHash:       hash,
		Generation:      entry.gen,
		StatsGeneration: dec.StatsGeneration,
		Plan:            plan.String(),
		Decision:        dec,
	}
	if entry.stats != nil {
		resp.StatsAgeSeconds = statsAge(entry.registeredAt)
	}
	for _, st := range dec.Stages {
		resp.Stages = append(resp.Stages, explainStage{
			Stage: st.Stage, Detail: st.Detail, Cost: st.Cost, EstimatedMs: st.EstimatedMs,
		})
	}

	if execute {
		// A dedicated always-on trace (the request's sampled trace may be
		// nil) measures the evaluation's per-stage self-times. Free-variable
		// queries run exactly as /v1/query would; only the timings are kept.
		etr := trace.New("explain_exec")
		ectx := trace.NewContext(ctx, etr)
		out, err := s.evaluate(ectx, entry, q, strat, stratName)
		etr.Finish()
		if err != nil {
			return nil, err
		}
		resp.Executed = true
		resp.Sat = &out.Sat
		attachMeasured(resp, etr.Snapshot())
	}
	resp.ElapsedMs = float64(time.Since(start).Microseconds()) / 1000
	return resp, nil
}

// attachMeasured folds a finished execution trace into the stage table:
// estimated stages gain their measured self-time, and measured core/*
// stages the planner did not estimate (merge, materialize, reach, …) are
// appended so the whole evaluation is accounted for.
func attachMeasured(resp *explainResponse, td trace.TraceData) {
	breakdown := td.Breakdown()
	measured := make(map[string]trace.Stage, len(breakdown))
	for _, st := range breakdown {
		measured[st.Name] = st
	}
	seen := make(map[string]bool, len(resp.Stages))
	for i := range resp.Stages {
		name := resp.Stages[i].Stage
		seen[name] = true
		if st, ok := measured[name]; ok {
			resp.Stages[i].ActualMs = st.SelfUs / 1000
			resp.Stages[i].Measured = true
			resp.Stages[i].Attrs = st.Attrs
		}
	}
	for _, st := range breakdown {
		if seen[st.Name] || len(st.Name) < 5 || st.Name[:5] != "core/" {
			continue
		}
		resp.Stages = append(resp.Stages, explainStage{
			Stage: st.Name, ActualMs: st.SelfUs / 1000, Measured: true, Attrs: st.Attrs,
		})
	}
}
