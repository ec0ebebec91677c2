package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"rtdls/internal/errs"
	"rtdls/internal/metrics"
	"rtdls/internal/rt"
	"rtdls/internal/server"
)

// outcome is what the benchmark keeps of one decision: the fields the
// decision digest covers, as seen by the caller (over the wire, as decoded
// from the response body).
type outcome struct {
	id       int64
	accepted bool
	shard    int
	reason   errs.Reason
	nodes    int
	est      float64
	failed   bool // hard error, transport error, 5xx or a wrong reply
}

// submitter sends one task to the system under test and waits for its
// decision — every workload is a closed loop.
type submitter func(ctx context.Context, t rt.Task) (outcome, error)

func engineSubmitter(eng server.Engine) submitter {
	return func(ctx context.Context, t rt.Task) (outcome, error) {
		d, err := eng.Submit(ctx, t)
		if err != nil {
			return outcome{}, err
		}
		return outcome{id: d.TaskID, accepted: d.Accepted, shard: d.Shard,
			reason: d.Reason, nodes: len(d.Nodes), est: d.Est}, nil
	}
}

// wireHarness is the engine behind server.Handler() on a loopback listener
// in this process, plus the keep-alive client that drives it. It is what
// `dlserve -quiet` runs: engine and server share one metrics registry and
// there is no request logger.
type wireHarness struct {
	srv       *server.Server
	http      *http.Server
	served    chan error
	client    *http.Client
	transport *http.Transport
	url       string
	conns     atomic.Int64 // connections the server accepted
	tr        *tracer
}

func startWire(eng server.Engine, reg *metrics.Registry, conns int, tr *tracer) (*wireHarness, error) {
	srv, err := server.New(server.Config{Engine: eng, Metrics: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &wireHarness{srv: srv, served: make(chan error, 1), tr: tr,
		url: "http://" + ln.Addr().String() + "/v1/submit"}
	handler := srv.Handler()
	if tr != nil {
		handler = tracedHandler{handler, tr}
	}
	h.http = &http.Server{Handler: handler, ConnState: func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			h.conns.Add(1)
		}
	}}
	go func() { h.served <- h.http.Serve(ln) }()
	h.transport = &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	h.client = &http.Client{Transport: h.transport}
	return h, nil
}

// stop shuts the server down and waits for its goroutines.
func (h *wireHarness) stop() error {
	h.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.http.Shutdown(ctx)
	if serr := <-h.served; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	return err
}

// submit POSTs one task to /v1/submit and decodes the decision. A clean
// rejection arrives under its reason's status code with the decision body;
// any other status, a transport error or a reply for another task is an
// error.
func (h *wireHarness) submit(ctx context.Context, t rt.Task) (outcome, error) {
	var span int32
	if h.tr != nil {
		span = h.tr.begin(spanWire)
		defer h.tr.end(span)
	}
	body, err := json.Marshal(server.TaskRequest{ID: t.ID, Arrival: t.Arrival,
		Sigma: t.Sigma, Deadline: t.RelDeadline, UserN: t.UserN})
	if err != nil {
		return outcome{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.url, bytes.NewReader(body))
	if err != nil {
		return outcome{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return outcome{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return outcome{}, err
	}
	var d server.DecisionResponse
	if err := json.Unmarshal(raw, &d); err != nil {
		return outcome{}, fmt.Errorf("status %d: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != d.Reason.Code() || d.TaskID != t.ID || d.Accepted != (d.Reason == errs.ReasonNone) ||
		resp.StatusCode >= 500 || resp.StatusCode == http.StatusBadRequest {
		return outcome{}, fmt.Errorf("task %d: status %d, reply %s", t.ID, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return outcome{id: d.TaskID, accepted: d.Accepted, shard: d.Shard,
		reason: d.Reason, nodes: len(d.Nodes), est: d.Est}, nil
}
