package cluster

import (
	"math"
	"testing"

	"rtdls/internal/dlt"
)

var baseline = dlt.Params{Cms: 1, Cps: 100}

func mustNew(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := New(n, baseline)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, baseline); err == nil {
		t.Fatalf("N=0 must fail")
	}
	if _, err := New(-3, baseline); err == nil {
		t.Fatalf("negative N must fail")
	}
	if _, err := New(4, dlt.Params{}); err == nil {
		t.Fatalf("invalid params must fail")
	}
}

func TestFreshClusterState(t *testing.T) {
	c := mustNew(t, 8)
	if c.N() != 8 {
		t.Fatalf("N = %d", c.N())
	}
	if c.Params() != baseline {
		t.Fatalf("Params = %+v", c.Params())
	}
	for id, at := range c.AvailInto(nil) {
		if at != 0 {
			t.Fatalf("node %d avail %v, want 0", id, at)
		}
	}
	if c.BusyTime() != 0 || c.ReservedIdle() != 0 || c.Commits() != 0 {
		t.Fatalf("fresh cluster has accounting")
	}
}

// TestAvailTimesIsCopy: the release times AvailInto returns, in a fresh
// slice or in the caller's buffer, are a copy of the cluster's.
func TestAvailTimesIsCopy(t *testing.T) {
	c := mustNew(t, 2)
	buf := make([]float64, 0, 4)
	for _, at := range [][]float64{c.AvailInto(nil), c.AvailInto(buf)} {
		at[0] = 99
		if c.AvailInto(nil)[0] != 0 {
			t.Fatalf("mutating the copy changed cluster state")
		}
	}
}

func TestCommitUpdatesState(t *testing.T) {
	c := mustNew(t, 4)
	err := c.Commit([]int{1, 3}, []float64{0, 5}, []float64{10, 12}, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if c.AvailInto(nil)[1] != 10 || c.AvailInto(nil)[3] != 12 {
		t.Fatalf("avail not updated: %v", c.AvailInto(nil))
	}
	if c.AvailInto(nil)[0] != 0 || c.AvailInto(nil)[2] != 0 {
		t.Fatalf("untouched nodes changed: %v", c.AvailInto(nil))
	}
	if got := c.BusyTime(); got != (10-0)+(12-5) {
		t.Fatalf("BusyTime = %v, want 17", got)
	}
	if c.ReservedIdle() != 2.5 {
		t.Fatalf("ReservedIdle = %v", c.ReservedIdle())
	}
	if c.LastRelease() != 12 {
		t.Fatalf("LastRelease = %v", c.LastRelease())
	}
	if c.Commits() != 1 {
		t.Fatalf("Commits = %d", c.Commits())
	}
}

func TestCommitSequential(t *testing.T) {
	c := mustNew(t, 2)
	if err := c.Commit([]int{0}, []float64{0}, []float64{10}, 0); err != nil {
		t.Fatal(err)
	}
	// Next task starts exactly at the release: allowed.
	if err := c.Commit([]int{0}, []float64{10}, []float64{30}, 0); err != nil {
		t.Fatal(err)
	}
	if c.AvailInto(nil)[0] != 30 {
		t.Fatalf("avail = %v", c.AvailInto(nil)[0])
	}
}

func TestCommitErrors(t *testing.T) {
	cases := []struct {
		name     string
		nodes    []int
		from, to []float64
		idle     float64
	}{
		{"length mismatch", []int{0, 1}, []float64{0}, []float64{1, 2}, 0},
		{"bad node id", []int{7}, []float64{0}, []float64{1}, 0},
		{"negative node id", []int{-1}, []float64{0}, []float64{1}, 0},
		{"release before start", []int{0}, []float64{5}, []float64{4}, 0},
		{"negative reserved", []int{0}, []float64{0}, []float64{1}, -1},
		{"NaN reserved", []int{0}, []float64{0}, []float64{1}, math.NaN()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mustNew(t, 2)
			if err := c.Commit(tc.nodes, tc.from, tc.to, tc.idle); err == nil {
				t.Fatalf("expected error")
			}
		})
	}
}

func TestCommitOverlapRejected(t *testing.T) {
	c := mustNew(t, 2)
	if err := c.Commit([]int{0}, []float64{0}, []float64{100}, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit([]int{0}, []float64{50}, []float64{150}, 0); err == nil {
		t.Fatalf("overlapping commit must be rejected")
	}
}

func TestCommitFailureIsAtomicEnough(t *testing.T) {
	// Validation happens before any mutation, so a failed commit leaves the
	// cluster untouched.
	c := mustNew(t, 3)
	if err := c.Commit([]int{0, 9}, []float64{0, 0}, []float64{5, 5}, 0); err == nil {
		t.Fatalf("expected error")
	}
	for id, at := range c.AvailInto(nil) {
		if at != 0 {
			t.Fatalf("node %d mutated by failed commit", id)
		}
	}
	if c.BusyTime() != 0 || c.Commits() != 0 {
		t.Fatalf("accounting mutated by failed commit")
	}
}

func TestUtilization(t *testing.T) {
	c := mustNew(t, 2)
	if err := c.Commit([]int{0, 1}, []float64{0, 0}, []float64{50, 100}, 0); err != nil {
		t.Fatal(err)
	}
	// 150 busy node·units over 2 nodes × 100 time units.
	if got := c.Utilization(100); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Utilization = %v, want 0.75", got)
	}
	if got := c.Utilization(0); got != 0 {
		t.Fatalf("Utilization(0) = %v, want 0", got)
	}
}

// TestCommitRejectsNaNTimes: a NaN start or release is refused like any
// other impossible interval and leaves the cluster untouched (it used to be
// committed, and panicked the availability index on its next update); a
// +Inf release stays legal.
func TestCommitRejectsNaNTimes(t *testing.T) {
	c := mustNew(t, 2)
	for _, tc := range []struct{ from, to float64 }{
		{math.NaN(), 1}, {0, math.NaN()}, {math.NaN(), math.NaN()},
	} {
		if err := c.Commit([]int{0}, []float64{tc.from}, []float64{tc.to}, 0); err == nil {
			t.Fatalf("Commit(%v, %v) accepted", tc.from, tc.to)
		}
	}
	if c.Commits() != 0 || c.AvailInto(nil)[0] != 0 || c.BusyTime() != 0 {
		t.Fatalf("refused commits left a mark: commits %d, avail %v, busy %v", c.Commits(), c.AvailInto(nil)[0], c.BusyTime())
	}
	if err := c.Commit([]int{1}, []float64{3}, []float64{math.Inf(1)}, 0); err != nil {
		t.Fatalf("+Inf release refused: %v", err)
	}
	if !math.IsInf(c.AvailInto(nil)[1], 1) {
		t.Fatalf("avail = %v, want +Inf", c.AvailInto(nil)[1])
	}
}

func TestNodeStateTextRoundTrip(t *testing.T) {
	for _, st := range []NodeState{NodeUp, NodeDraining, NodeDown} {
		b, err := st.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var got NodeState
		if err := got.UnmarshalText(b); err != nil || got != st {
			t.Fatalf("UnmarshalText(%q) = %v, %v; want %v", b, got, err, st)
		}
	}
	var st NodeState
	if err := st.UnmarshalText([]byte("rebooting")); err == nil {
		t.Fatal("UnmarshalText accepted an unknown token")
	}
}
