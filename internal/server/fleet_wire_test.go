package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/errs"
	"rtdls/internal/pool"
	"rtdls/internal/rt"
	"rtdls/internal/service"
)

// TestFleetWireContract pins the fleet admin surface byte for byte on a
// 2×4-node pool: the status and body of every verb (including a fail that
// displaces a waiting task onto the other shard), the 400s for an unknown
// verb and a bad node id, and the node_states array in /v1/stats.
func TestFleetWireContract(t *testing.T) {
	shards := make([]pool.ShardConfig, 2)
	for i := range shards {
		cl, err := cluster.New(4, baseline)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = pool.ShardConfig{Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{}}
	}
	p, err := pool.New(pool.Config{Shards: shards, Clock: service.NewManualClock(0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	srv, err := New(Config{Engine: p, Scale: 1000, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	// Tasks 1-4 start now on both shards; 5 and 6 wait behind them, task 5
	// on shard 0 over nodes 0, 1 and 2.
	for i, d := range []float64{12000, 12000, 12000, 12000, 20300, 40000} {
		if w := postJSON(t, h, "/v1/submit", TaskRequest{ID: int64(i + 1), Sigma: 200, Deadline: d}); w.Code != http.StatusOK {
			t.Fatalf("task %d: status %d, body %s", i+1, w.Code, w.Body)
		}
	}

	for _, c := range []struct{ path, body string }{
		{"/v1/nodes/1/drain", `{"node":1,"state":"draining","displaced":0,"readmitted":0}`},
		{"/v1/nodes/0/fail", `{"node":0,"state":"down","displaced":1,"readmitted":1}`},
		{"/v1/nodes/1/restore", `{"node":1,"state":"up","displaced":0,"readmitted":0}`},
		{"/v1/nodes/5/drain", `{"node":5,"state":"draining","displaced":0,"readmitted":0}`},
	} {
		w := postNodeOp(t, h, c.path)
		if w.Code != http.StatusOK || w.Body.String() != c.body+"\n" {
			t.Errorf("%s: %d %q, want 200 %q", c.path, w.Code, w.Body, c.body+"\n")
		}
	}

	for _, path := range []string{"/v1/nodes/1/reboot", "/v1/nodes/x/drain", "/v1/nodes/-1/drain", "/v1/nodes/8/drain"} {
		w := postNodeOp(t, h, path)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", path, w.Code, w.Body)
			continue
		}
		if e := decode[ErrorResponse](t, w); e.Code != http.StatusBadRequest || e.Reason != errs.ReasonBadRequest {
			t.Errorf("%s: error body %+v", path, e)
		}
	}

	w := get(t, h, "/v1/stats")
	var st map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if got, want := string(st["node_states"]), `["down","up","up","up","up","draining","up","up"]`; got != want {
		t.Fatalf("node_states = %s, want %s", got, want)
	}
}
