package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"rtdls/internal/service"
)

// postNodeOp POSTs one fleet operation and returns the recorder.
func postNodeOp(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestNodeOpEndpoints(t *testing.T) {
	srv, eng, _ := newTestServer(t)
	h := srv.Handler()

	w := postNodeOp(t, h, "/v1/nodes/3/drain")
	if w.Code != http.StatusOK {
		t.Fatalf("drain status = %d, body %s", w.Code, w.Body)
	}
	var res service.FleetResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Node != 3 || res.State != service.NodeDraining || res.Displaced != 0 {
		t.Fatalf("result = %+v", res)
	}

	if w = postNodeOp(t, h, "/v1/nodes/4/fail"); w.Code != http.StatusOK {
		t.Fatalf("fail status = %d, body %s", w.Code, w.Body)
	}
	if states := eng.NodeStates(); states[3] != service.NodeDraining || states[4] != service.NodeDown {
		t.Fatalf("engine states = %v", states[:5])
	}

	if w = postNodeOp(t, h, "/v1/nodes/3/restore"); w.Code != http.StatusOK {
		t.Fatalf("restore status = %d, body %s", w.Code, w.Body)
	}
	if states := eng.NodeStates(); states[3] != service.NodeUp {
		t.Fatalf("node 3 not restored: %v", states[:5])
	}
}

func TestNodeOpBadRequests(t *testing.T) {
	srv, _, _ := newTestServer(t)
	h := srv.Handler()

	// Unknown action, malformed id, and out-of-range node all map to 400.
	for _, path := range []string{"/v1/nodes/3/reboot", "/v1/nodes/abc/drain", "/v1/nodes/99/drain"} {
		if w := postNodeOp(t, h, path); w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400 (body %s)", path, w.Code, w.Body)
		}
	}
	// GET on the fleet route is not served.
	req := httptest.NewRequest(http.MethodGet, "/v1/nodes/3/drain", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code == http.StatusOK {
		t.Fatalf("GET on a fleet op answered %d", w.Code)
	}
}

func TestStatsCarriesNodeStates(t *testing.T) {
	srv, _, _ := newTestServer(t)
	h := srv.Handler()
	postNodeOp(t, h, "/v1/nodes/0/fail")
	postNodeOp(t, h, "/v1/nodes/1/drain")

	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.NodeStates) != 16 {
		t.Fatalf("node_states = %v", st.NodeStates)
	}
	if st.NodeStates[0] != service.NodeDown || st.NodeStates[1] != service.NodeDraining || st.NodeStates[2] != service.NodeUp {
		t.Fatalf("node_states = %v", st.NodeStates[:3])
	}
	if st.NodesUp != 14 || st.NodesDown != 1 || st.NodesDraining != 1 {
		t.Fatalf("fleet counts = %d/%d/%d", st.NodesUp, st.NodesDraining, st.NodesDown)
	}
}
