package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// handleEvents streams the decision/lifecycle bus to the client as
// Server-Sent Events: one "message" event per accept/reject/commit, plus
// explicit "gap" events whenever this subscriber's buffer overflowed, so a
// lossy consumer knows exactly how many decisions it missed. The stream
// ends when the client disconnects or the engine closes (drain/shutdown).
//
// Query parameters: buffer (subscriber channel buffer, default 1024,
// capped at 65536).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeJSON(w, http.StatusNotImplemented, ErrorResponse{
			Error: "server: streaming unsupported by this connection", Code: http.StatusNotImplemented,
		})
		return
	}
	buffer := 1024
	if v := r.URL.Query().Get("buffer"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 1<<16 {
			s.writeJSON(w, http.StatusBadRequest, ErrorResponse{
				Error: "server: buffer must be an integer in [1, 65536]", Code: http.StatusBadRequest,
			})
			return
		}
		buffer = n
	}

	sub := s.eng.Subscribe(buffer)
	defer sub.Cancel()
	subID := s.trackSub(sub)
	defer s.untrackSub(subID)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// Reconnect hint for EventSource clients.
	_, _ = w.Write([]byte("retry: 1000\n\n"))
	flusher.Flush()

	// Heartbeat keeps idle connections alive through proxies and gives the
	// loop a periodic chance to notice client disconnects and gaps.
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()

	var reportedDrops uint64
	writeEvent := func(name string, body any) bool {
		data, err := json.Marshal(body)
		if err != nil {
			return false
		}
		if _, err := w.Write([]byte("event: " + name + "\ndata: " + string(data) + "\n\n")); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	checkGap := func() bool {
		total := sub.Dropped()
		if total == reportedDrops {
			return true
		}
		delta := total - reportedDrops
		reportedDrops = total
		return writeEvent("gap", EventResponse{Kind: "gap", Dropped: delta, DroppedTotal: total})
	}

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-heartbeat.C:
			if !checkGap() {
				return
			}
			if _, err := w.Write([]byte(": keep-alive\n\n")); err != nil {
				return
			}
			flusher.Flush()
		case ev, ok := <-sub.C():
			if !ok {
				// Engine closed (drain finished): tell the client the stream
				// ended cleanly rather than just dropping the connection.
				writeEvent("end", EventResponse{Kind: "end"})
				return
			}
			if !writeEvent(ev.Kind.String(), eventResponse(ev)) {
				return
			}
			if !checkGap() {
				return
			}
		}
	}
}
