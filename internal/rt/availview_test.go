package rt

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// Rollback undoes every tentative assignment, restoring the base snapshot.
func (v *AvailView) Rollback() { v.RollbackTo(v.undoBase) }

// rollbackStepwise is the specification of RollbackTo: the log undone entry
// by entry, newest first, one remove and one insert each.
func (v *AvailView) rollbackStepwise(mark int) {
	keep := mark - v.undoBase
	for i := len(v.undoID) - 1; i >= keep; i-- {
		v.setTime(v.undoID[i], v.undoTime[i])
	}
	v.undoID = v.undoID[:keep]
	v.undoTime = v.undoTime[:keep]
	v.invalidatePrefix()
}

// sameIndex fails unless the two views, driven through the same operations,
// hold the same times in the same tree.
func sameIndex(t *testing.T, a, b *AvailView) {
	t.Helper()
	a.ensureTree()
	b.ensureTree()
	if a.root != b.root || !slices.Equal(a.times, b.times) || !slices.Equal(a.left, b.left) ||
		!slices.Equal(a.right, b.right) || !slices.Equal(a.size, b.size) {
		t.Fatalf("index differs from the entry-by-entry undo:\n times %v\n       %v\n root %d %d\n left  %v\n       %v\n right %v\n       %v",
			a.times, b.times, a.root, b.root, a.left, b.left, a.right, b.right)
	}
}

// refModel is an independent full-sort reference implementation of the
// AvailView contract: the differential and fuzz suites drive it in
// lockstep with the treap index (and with the view's own refMode hook) and
// require identical output for every query.
type refModel struct {
	base  []float64 // committed base snapshot
	times []float64 // base + tentative assignments
	elig  []bool
}

func newRefModel(times []float64) *refModel {
	m := &refModel{}
	m.reset(times)
	return m
}

func (m *refModel) reset(times []float64) {
	m.base = append(m.base[:0], times...)
	m.times = append(m.times[:0], times...)
	m.elig = nil
}

func (m *refModel) setEligible(elig []bool) { m.elig = elig }

func (m *refModel) eligible() int {
	if m.elig == nil {
		return len(m.times)
	}
	n := 0
	for _, e := range m.elig {
		if e {
			n++
		}
	}
	return n
}

func (m *refModel) apply(ids []int, rel []float64) {
	for i, id := range ids {
		m.times[id] = rel[i]
	}
}

func (m *refModel) rollback() { copy(m.times, m.base) }

// A checkpoint of the model is a full copy of its times: rolling back to
// it restores the copy, committing up to it makes the copy the base.
func (m *refModel) checkpoint() []float64     { return append([]float64(nil), m.times...) }
func (m *refModel) rollbackTo(ck []float64)   { copy(m.times, ck) }
func (m *refModel) commitPrefix(ck []float64) { copy(m.base, ck) }

func (m *refModel) commitBase(ids []int, rel []float64) {
	for i, id := range ids {
		m.base[id] = rel[i]
		m.times[id] = rel[i]
	}
}

func (m *refModel) earliest(k int) (ids []int, times []float64) {
	order := make([]int, len(m.times))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, b := order[x], order[y]
		if m.elig != nil && m.elig[a] != m.elig[b] {
			return m.elig[a]
		}
		if m.times[a] != m.times[b] {
			return m.times[a] < m.times[b]
		}
		return a < b
	})
	ids = order[:k]
	times = make([]float64, k)
	for i, id := range ids {
		times[i] = m.times[id]
	}
	return ids, times
}

// driveAvailView interprets data as an op stream over an AvailView, a
// second view pinned to refMode, and the independent reference model, and
// fails the moment any query diverges. A third view undoes its log entry by
// entry where the first calls RollbackTo, and the two must end every
// rollback on the same tree. Times are drawn from a coarse grid
// so ties (the id tie-break) occur constantly, and apply batches range
// from one node to the whole cluster, covering both the
// few-dirty-nodes regime and the everything-retimed regime that used to
// straddle the old implementation's len(dirty)*4 >= n full-resort
// threshold.
func driveAvailView(t *testing.T, data []byte) {
	t.Helper()
	off := 0
	next := func() byte {
		if off >= len(data) {
			return 0
		}
		b := data[off]
		off++
		return b
	}
	mkTime := func() float64 { return float64(int(next())%48-8) * 0.5 }

	n := 2 + int(next())%32
	base := make([]float64, n)
	for i := range base {
		base[i] = mkTime()
	}
	v := NewAvailView(append([]float64(nil), base...))
	vr := NewAvailView(append([]float64(nil), base...))
	vr.refMode = true
	vs := NewAvailView(append([]float64(nil), base...))
	model := newRefModel(base)

	check := func(k int) {
		vs.ensureTree() // rebuilds draw priorities: keep vs in step with v
		wantIDs, wantTimes := model.earliest(k)
		for _, view := range []*AvailView{v, vr} {
			ids, times := view.Earliest(k)
			if !slices.Equal(ids, wantIDs) || !slices.Equal(times, wantTimes) {
				t.Fatalf("Earliest(%d) refMode=%v:\n got  %v %v\n want %v %v\n(times=%v elig=%v)",
					k, view.refMode, ids, times, wantIDs, wantTimes, model.times, model.elig)
			}
			gotIDs := make([]int, k)
			gotTimes := make([]float64, k)
			view.EarliestInto(gotIDs, gotTimes)
			if !slices.Equal(gotIDs, wantIDs) || !slices.Equal(gotTimes, wantTimes) {
				t.Fatalf("EarliestInto(%d) refMode=%v: got %v %v want %v %v",
					k, view.refMode, gotIDs, gotTimes, wantIDs, wantTimes)
			}
			if at := view.EarliestTimeAt(k); at != wantTimes[k-1] {
				t.Fatalf("EarliestTimeAt(%d) refMode=%v: got %v want %v", k, view.refMode, at, wantTimes[k-1])
			}
		}
	}

	// Held checkpoints, oldest first: the views' marks and the model's copy
	// of the times at that instant.
	type checkpoint struct {
		v, vr int
		model []float64
	}
	var held []checkpoint
	pending := false
	for steps := 0; steps < 512 && off < len(data); steps++ {
		op := next() % 11
		if op == 0 || op == 6 || op == 7 {
			// A reset or full rollback retires every checkpoint; so does a
			// base commit, which the model's copies would not reflect.
			held = held[:0]
		}
		switch op {
		case 8: // checkpoint the undo log
			if len(held) < 8 {
				held = append(held, checkpoint{v.Mark(), vr.Mark(), model.checkpoint()})
			}
		case 9: // roll back to a held checkpoint, retiring the later ones
			if len(held) > 0 {
				i := int(next()) % len(held)
				v.RollbackTo(held[i].v)
				vs.rollbackStepwise(held[i].v)
				sameIndex(t, v, vs)
				vr.RollbackTo(held[i].vr)
				model.rollbackTo(held[i].model)
				held = held[:i+1]
			}
		case 10: // commit up to a held checkpoint, retiring the earlier ones
			if len(held) > 0 {
				i := int(next()) % len(held)
				v.CommitPrefix(held[i].v)
				vs.CommitPrefix(held[i].v)
				vr.CommitPrefix(held[i].vr)
				model.commitPrefix(held[i].model)
				held = held[i:]
			}
		case 0: // Reset to a fresh snapshot
			for i := range base {
				base[i] = mkTime()
			}
			v.Reset(append([]float64(nil), base...))
			vs.Reset(append([]float64(nil), base...))
			vr.Reset(append([]float64(nil), base...))
			vr.refMode = true
			model.reset(base)
			pending = false
		case 1: // SetEligible with a random mask (at least one node up)
			elig := make([]bool, n)
			any := false
			for i := range elig {
				elig[i] = next()%4 != 0
				any = any || elig[i]
			}
			if !any {
				elig[int(next())%n] = true
			}
			v.SetEligible(elig)
			vs.SetEligible(elig)
			vr.SetEligible(elig)
			model.setEligible(elig)
		case 2: // Apply a tentative batch (duplicates allowed)
			m := 1 + int(next())%n
			ids := make([]int, m)
			rel := make([]float64, m)
			for j := range ids {
				ids[j] = int(next()) % n
				rel[j] = mkTime()
			}
			v.Apply(ids, rel)
			vs.Apply(ids, rel)
			vr.Apply(ids, rel)
			model.apply(ids, rel)
			pending = true
		case 3, 4: // query a random prefix
			check(1 + int(next())%v.Eligible())
		case 5: // order-statistic query without materialising
			k := 1 + int(next())%v.Eligible()
			_, wantTimes := model.earliest(k)
			vs.ensureTree()
			if at := v.EarliestTimeAt(k); at != wantTimes[k-1] {
				t.Fatalf("EarliestTimeAt(%d): got %v want %v (times=%v elig=%v)",
					k, at, wantTimes[k-1], model.times, model.elig)
			}
		case 6: // Rollback to base
			v.Rollback()
			vs.rollbackStepwise(vs.undoBase)
			sameIndex(t, v, vs)
			vr.Rollback()
			model.rollback()
			pending = false
		case 7: // CommitBase (requires no tentative assignments)
			if pending {
				v.Rollback()
				vs.rollbackStepwise(vs.undoBase)
				vr.Rollback()
				model.rollback()
				pending = false
			}
			m := 1 + int(next())%n
			ids := make([]int, m)
			rel := make([]float64, m)
			for j := range ids {
				ids[j] = int(next()) % n
				rel[j] = mkTime()
			}
			v.CommitBase(ids, rel)
			vs.CommitBase(ids, rel)
			vr.CommitBase(ids, rel)
			model.commitBase(ids, rel)
		}
	}
	check(v.Eligible())
	v.Rollback()
	vs.rollbackStepwise(vs.undoBase)
	sameIndex(t, v, vs)
	vr.Rollback()
	model.rollback()
	check(v.Eligible())
}

// TestAvailViewDifferential drives long random op sequences over the
// indexed view, its refMode full-sort twin and the independent reference
// model, across a spread of cluster sizes and seeds.
func TestAvailViewDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 80+rng.Intn(2000))
		rng.Read(data)
		driveAvailView(t, data)
	}
}

// FuzzAvailView is the fuzz entry over the same differential driver,
// registered in the Makefile FUZZ_PKGS CI smoke.
func FuzzAvailView(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 10, 20, 30, 40, 50, 2, 1, 7, 3, 0})
	f.Add([]byte{31, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
		16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31,
		2, 5, 9, 0, 3, 1, 6, 7, 12, 40, 3, 2, 5, 5, 5})
	rng := rand.New(rand.NewSource(41))
	seed := make([]byte, 300)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		driveAvailView(t, data)
	})
}

// TestAvailViewEarliestNoAliasing is the regression test for the Earliest
// aliasing contract: slices returned by one Earliest call must survive
// later Apply and Earliest calls unchanged. The pre-index implementation
// returned aliases of its sort buffers and the next query's in-place
// compaction silently rewrote them under the caller.
func TestAvailViewEarliestNoAliasing(t *testing.T) {
	v := NewAvailView([]float64{5, 1, 3, 2, 4})
	ids, times := v.Earliest(3)
	wantIDs := append([]int(nil), ids...)
	wantTimes := append([]float64(nil), times...)

	// Retime one of the held nodes and query again: the compaction/repair
	// work of the second query must not leak into the held slices.
	v.Apply([]int{1}, []float64{100})
	v.Earliest(3)
	if !slices.Equal(ids, wantIDs) || !slices.Equal(times, wantTimes) {
		t.Fatalf("Earliest results mutated by later Apply+Earliest:\n got  %v %v\n want %v %v",
			ids, times, wantIDs, wantTimes)
	}
}

// TestAvailViewRollbackRestoresBase covers the undo log: any interleaving
// of Apply batches is fully reversed by one Rollback.
func TestAvailViewRollbackRestoresBase(t *testing.T) {
	base := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	v := NewAvailView(append([]float64(nil), base...))
	wantIDs, wantTimes := v.Earliest(8)
	v.Apply([]int{1, 3, 5}, []float64{50, 60, 70})
	v.Apply([]int{1, 0}, []float64{80, 90})
	v.Rollback()
	ids, times := v.Earliest(8)
	if !slices.Equal(ids, wantIDs) || !slices.Equal(times, wantTimes) {
		t.Fatalf("Rollback did not restore base order: got %v %v want %v %v", ids, times, wantIDs, wantTimes)
	}
	if !slices.Equal(v.Times(), base) {
		t.Fatalf("Rollback did not restore base times: got %v want %v", v.Times(), base)
	}
}

// TestAvailViewCommitBaseSticks covers the base-sync path: committed
// release times survive subsequent Rollbacks.
func TestAvailViewCommitBaseSticks(t *testing.T) {
	v := NewAvailView([]float64{0, 0, 0, 0})
	v.Apply([]int{0, 1}, []float64{10, 20})
	v.Rollback()
	v.CommitBase([]int{0, 1}, []float64{10, 20})
	v.Apply([]int{2}, []float64{99})
	v.Rollback()
	want := []float64{10, 20, 0, 0}
	if !slices.Equal(v.Times(), want) {
		t.Fatalf("after CommitBase+Rollback: times %v want %v", v.Times(), want)
	}
	ids, _ := v.Earliest(2)
	if ids[0] != 2 || ids[1] != 3 {
		t.Fatalf("Earliest(2) after CommitBase = %v, want [2 3]", ids)
	}
}

// TestAvailViewCommitBasePanicsOnPending pins the CommitBase precondition.
func TestAvailViewCommitBasePanicsOnPending(t *testing.T) {
	v := NewAvailView([]float64{0, 0})
	v.Apply([]int{0}, []float64{5})
	defer func() {
		if recover() == nil {
			t.Fatal("CommitBase with tentative assignments pending did not panic")
		}
	}()
	v.CommitBase([]int{1}, []float64{7})
}

// TestAvailViewEarliestIntoPanics pins the buffer-length contract.
func TestAvailViewEarliestIntoPanics(t *testing.T) {
	v := NewAvailView([]float64{1, 2, 3})
	for _, tc := range []struct {
		ids   []int
		times []float64
	}{
		{make([]int, 2), make([]float64, 3)},
		{make([]int, 0), make([]float64, 0)},
		{make([]int, 4), make([]float64, 4)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("EarliestInto(len %d, len %d) did not panic", len(tc.ids), len(tc.times))
				}
			}()
			v.EarliestInto(tc.ids, tc.times)
		}()
	}
}
