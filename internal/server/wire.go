package server

import (
	"fmt"

	"rtdls/internal/errs"
	"rtdls/internal/rt"
	"rtdls/internal/service"
)

// TaskRequest is the wire form of one divisible task T = (A, σ, D). Times
// are in the cluster's simulation units; a zero (or omitted) arrival means
// "arrives now" on the server's clock.
type TaskRequest struct {
	ID       int64   `json:"id,omitempty"`
	Arrival  float64 `json:"arrival,omitempty"`
	Sigma    float64 `json:"sigma"`
	Deadline float64 `json:"deadline"` // relative deadline D
	UserN    int     `json:"user_n,omitempty"`
}

// Task converts the wire form into the engine's task, validating it so a
// malformed request fails before it reaches a shard's lock.
func (r TaskRequest) Task() (rt.Task, error) {
	t := rt.Task{ID: r.ID, Arrival: r.Arrival, Sigma: r.Sigma, RelDeadline: r.Deadline, UserN: r.UserN}
	if err := t.Validate(); err != nil {
		return rt.Task{}, fmt.Errorf("server: invalid task: %w", err)
	}
	return t, nil
}

// BatchRequest is the wire form of one SubmitBatch call.
type BatchRequest struct {
	Tasks []TaskRequest `json:"tasks"`
}

// DecisionResponse is the wire form of one admission decision. Reason is
// the stable string enum token and Code its stable integer status — the
// same values whether the decision arrives as a submit response or on the
// event stream.
type DecisionResponse struct {
	TaskID   int64       `json:"task_id"`
	Accepted bool        `json:"accepted"`
	At       float64     `json:"at"`
	Shard    int         `json:"shard"`
	Reason   errs.Reason `json:"reason,omitempty"`
	Code     int         `json:"code"`

	// RetryAfter (wall seconds) is set on busy rejections only: the queue
	// slack until the next pending commit frees capacity.
	RetryAfter float64 `json:"retry_after,omitempty"`

	// Plan details, accepted decisions only.
	Nodes  []int     `json:"nodes,omitempty"`
	Starts []float64 `json:"starts,omitempty"`
	Alphas []float64 `json:"alphas,omitempty"`
	Est    float64   `json:"est,omitempty"`
	Rounds int       `json:"rounds,omitempty"`
}

// decisionResponse converts an engine decision to its wire form.
func decisionResponse(d service.Decision, s *Server) DecisionResponse {
	resp := DecisionResponse{
		TaskID:   d.TaskID,
		Accepted: d.Accepted,
		At:       d.At,
		Shard:    d.Shard,
		Reason:   d.Reason,
		Code:     d.Reason.Code(),
		Nodes:    d.Nodes,
		Starts:   d.Starts,
		Alphas:   d.Alphas,
		Est:      d.Est,
		Rounds:   d.Rounds,
	}
	if d.Reason == errs.ReasonBusy {
		resp.RetryAfter = s.retryAfterSeconds()
	}
	return resp
}

// BatchResponse is the wire form of one SubmitBatch result. On a hard
// mid-batch error the decisions made so far are included alongside the
// error, so the client can resubmit exactly the unconsidered tail.
type BatchResponse struct {
	Decisions []DecisionResponse `json:"decisions"`
	Accepted  int                `json:"accepted"`
	Rejected  int                `json:"rejected"`

	Error       string      `json:"error,omitempty"`
	ErrorReason errs.Reason `json:"error_reason,omitempty"`
}

// ErrorResponse is the wire form of a hard error (malformed input, closed
// or draining service, cancelled context).
type ErrorResponse struct {
	Error      string      `json:"error"`
	Code       int         `json:"code"`
	Reason     errs.Reason `json:"reason,omitempty"`
	RetryAfter float64     `json:"retry_after,omitempty"`
}

// StatsResponse is the wire form of /v1/stats: the engine snapshot plus
// server-level accounting.
type StatsResponse struct {
	service.Stats
	RejectRatio   float64  `json:"reject_ratio"`
	NextCommit    *float64 `json:"next_commit,omitempty"`
	Version       string   `json:"version,omitempty"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	Draining      bool     `json:"draining"`
	HTTPRequests  int64    `json:"http_requests"`
	HTTP5xx       int64    `json:"http_5xx"`

	// Subscribers lists every active event-stream subscriber with its own
	// dropped-event count (Stats.EventsDropped is the bus-wide total).
	Subscribers []SubscriberStats `json:"subscribers,omitempty"`

	// NodeStates lists every node's lifecycle state token ("up",
	// "draining", "down"), indexed by the engine-wide node id (shard-major
	// on a pool) — the target surface of POST /v1/nodes/{id}/{action}.
	NodeStates []string `json:"node_states,omitempty"`
}

// SubscriberStats is one active SSE subscriber's view in /v1/stats.
type SubscriberStats struct {
	ID      int64  `json:"id"`
	Dropped uint64 `json:"dropped"`
}

// HealthResponse is the wire form of /healthz: Status is "ok" (200) while
// the admission gate is open, "draining" (503) once it closes.
type HealthResponse struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining,omitempty"`
}

// EventResponse is the wire form of one stream event. Gap events (kind
// "gap") report Dropped — how many events this subscriber lost since the
// previous gap notice — so consumers detect missing decisions instead of
// silently skipping them.
type EventResponse struct {
	Kind  string  `json:"kind"`
	Time  float64 `json:"time"`
	Shard int     `json:"shard"`

	TaskID   int64   `json:"task_id,omitempty"`
	Sigma    float64 `json:"sigma,omitempty"`
	Deadline float64 `json:"deadline,omitempty"`
	Arrival  float64 `json:"arrival,omitempty"`

	Nodes int     `json:"nodes,omitempty"`
	Est   float64 `json:"est,omitempty"`

	Reason errs.Reason `json:"reason,omitempty"`
	Code   int         `json:"code,omitempty"`

	// Gap events only.
	Dropped      uint64 `json:"dropped,omitempty"`
	DroppedTotal uint64 `json:"dropped_total,omitempty"`
}

// eventResponse converts a bus event to its wire form.
func eventResponse(ev service.Event) EventResponse {
	resp := EventResponse{
		Kind:     ev.Kind.String(),
		Time:     ev.Time,
		Shard:    ev.Shard,
		TaskID:   ev.Task.ID,
		Sigma:    ev.Task.Sigma,
		Deadline: ev.Task.RelDeadline,
		Arrival:  ev.Task.Arrival,
		Nodes:    ev.Nodes,
		Est:      ev.Est,
		Reason:   ev.Reason,
	}
	if ev.Kind == service.EventReject {
		resp.Code = ev.Reason.Code()
	}
	return resp
}
