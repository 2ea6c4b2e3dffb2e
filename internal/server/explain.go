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
	"time"

	"ecrpq/internal/core"
	"ecrpq/internal/planner"
	"ecrpq/internal/trace"
)

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

// explain runs on a pool worker — an execute=true explanation is a full
// evaluation and must compete like one, and even plan-only requests run
// Explain/Resolve work worth admitting: resolve the plan (through the same
// cached decision execution uses), render its cost breakdown, and when
// execute is set run the evaluation under a dedicated trace and fold the
// measured stage self-times into the breakdown.
func (s *Server) explain(ctx context.Context, c *readCall) (*explainResponse, error) {
	start := time.Now()
	var dec *planner.Decision
	source := "requested"
	if c.strat == core.Auto {
		d, err := s.planDecision(ctx, c)
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
		plan, err := core.Explain(c.q, s.coreOptions(c.strat))
		if err != nil {
			return nil, err
		}
		dec = planner.Resolve(c.entry.stats, plan, s.coreOptions(c.strat), s.cfg.Planner)
	}

	// The rendered plan reflects the resolved strategy, not the fixed
	// rule's idea of "auto".
	plan, err := core.Explain(c.q, s.coreOptions(dec.Strategy))
	if err != nil {
		return nil, err
	}

	resp := &explainResponse{
		Strategy:        dec.Strategy.String(),
		StrategySource:  source,
		QueryHash:       c.hash,
		Generation:      c.entry.gen,
		StatsGeneration: dec.StatsGeneration,
		Plan:            plan.String(),
		Decision:        dec,
	}
	if c.entry.stats != nil {
		resp.StatsAgeSeconds = statsAge(c.entry.registeredAt)
	}
	for _, st := range dec.Stages {
		resp.Stages = append(resp.Stages, explainStage{
			Stage: st.Stage, Detail: st.Detail, Cost: st.Cost, EstimatedMs: st.EstimatedMs,
		})
	}

	if c.Execute {
		// A dedicated always-on trace (the request's sampled trace may be
		// nil) measures the evaluation's per-stage self-times. Free-variable
		// queries run exactly as /v1/query would; only the timings are kept.
		etr := trace.New("explain_exec")
		out, err := s.evaluate(trace.NewContext(ctx, etr), c)
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
// stages the planner did not estimate (merge, materialize, …) are
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
