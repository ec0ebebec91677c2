package rt

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rtdls/internal/cluster"
)

// Rollback undoes every tentative assignment, restoring the base snapshot.
func (v *AvailView) Rollback() { v.RollbackTo(v.undoBase) }

// earliest is EarliestInto into fresh slices.
func earliest(v *AvailView, k int) (ids []int, times []float64) {
	ids, times = make([]int, k), make([]float64, k)
	v.EarliestInto(ids, times)
	return ids, times
}

// rollbackStepwise is the specification of RollbackTo: the log undone entry
// by entry, newest first, one retiming each.
func (v *AvailView) rollbackStepwise(mark int) {
	keep := mark - v.undoBase
	for i := len(v.undoID) - 1; i >= keep; i-- {
		v.setTime(v.undoID[i], v.undoTime[i])
	}
	v.undoID = v.undoID[:keep]
	v.undoTime = v.undoTime[:keep]
}

// indexOrder returns the keys the index holds, in its order, after checking
// its invariants (nothing, while a rebuild is pending): every block of the
// directory is non-empty, within its capacity and strictly sorted, within
// itself and against the block before it; the blocks of the directory and
// of the free list are all the blocks, each once; every node has exactly
// one key, and that key carries the node's current time.
func indexOrder(t *testing.T, v *AvailView) (ids []int, times []float64) {
	t.Helper()
	if v.dirty {
		return nil, nil // no index to speak of until the next query rebuilds it
	}
	seenBlock := make([]bool, len(v.cnt))
	for _, b := range append(append([]int32(nil), v.dir...), v.free...) {
		if seenBlock[b] {
			t.Fatalf("block %d listed twice (dir %v, free %v)", b, v.dir, v.free)
		}
		seenBlock[b] = true
	}
	if len(v.dir)+len(v.free) != len(v.cnt) {
		t.Fatalf("%d blocks in the directory, %d free, %d in all", len(v.dir), len(v.free), len(v.cnt))
	}
	for _, b := range v.dir {
		n := int(v.cnt[b])
		if n < 1 || n > blockCap {
			t.Fatalf("block %d of the directory holds %d keys", b, n)
		}
		for _, k := range v.block(b) {
			ids = append(ids, k.id)
			times = append(times, k.t)
		}
	}
	if len(ids) != len(v.times) {
		t.Fatalf("index holds %d keys for %d nodes", len(ids), len(v.times))
	}
	seen := make([]bool, len(v.times))
	for i, id := range ids {
		if seen[id] {
			t.Fatalf("node %d indexed twice", id)
		}
		seen[id] = true
		if times[i] != v.times[id] {
			t.Fatalf("node %d indexed at %v, its time is %v", id, times[i], v.times[id])
		}
		if i > 0 && !v.before(times[i-1], ids[i-1], times[i], id) {
			t.Fatalf("keys %d and %d out of order: (%v, %d) then (%v, %d)", i-1, i, times[i-1], ids[i-1], times[i], id)
		}
	}
	return ids, times
}

// sameIndex fails unless the two views, driven through the same operations,
// hold the same times in the same order. How the order is cut into blocks
// may differ: it depends on the path the keys took.
func sameIndex(t *testing.T, a, b *AvailView) {
	t.Helper()
	aIDs, aTimes := indexOrder(t, a)
	bIDs, bTimes := indexOrder(t, b)
	if !slices.Equal(a.times, b.times) || !slices.Equal(aIDs, bIDs) || !slices.Equal(aTimes, bTimes) {
		t.Fatalf("index differs from the entry-by-entry undo:\n times %v\n       %v\n order %v\n       %v",
			a.times, b.times, aIDs, bIDs)
	}
}

// refModel is an independent full-sort reference implementation of the
// AvailView contract: the differential and fuzz suites drive it in
// lockstep with the blocked index and require identical output for every
// query.
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

// refScheduler is the reference side of the scheduler equivalence suites:
// the per-submit, full-sort behaviour the production scheduler's
// incremental view, base sync, fast-rejects and kept plans must reproduce
// bit for bit. Its partitioner plans every task afresh on a view built from
// scratch (freshView), and every test and every sweep starts from a fresh
// snapshot of the committed state (resnap). plans counts the Plan calls
// the fresh views served.
type refScheduler struct {
	*Scheduler
	plans int
}

func newRefScheduler(cl *cluster.Cluster, pol Policy, part Partitioner) *refScheduler {
	r := &refScheduler{}
	r.Scheduler = NewScheduler(cl, pol, freshView{part, &r.plans})
	return r
}

// resnap invalidates the scheduler's view of its cluster, which changes
// nothing else: the next call rebuilds the view from a full snapshot and
// offers no plan as a prior.
func (r *refScheduler) resnap() { r.invalidate() }

func (r *refScheduler) Submit(t *Task, now float64) (bool, error) {
	r.resnap()
	return r.Scheduler.Submit(t, now)
}

func (r *refScheduler) Admit(t *Task, now float64) (*Plan, error) {
	r.resnap()
	return r.Scheduler.Admit(t, now)
}

func (r *refScheduler) CommitDue(now float64) ([]*Plan, error) {
	r.resnap()
	return r.Scheduler.CommitDue(now)
}

// freshView shows the scheduler nothing but Name and Plan, so neither the
// demand bound nor a fast-reject runs. Every Plan call sees a view built
// afresh over a copy of the times, under the same mask: no query reaches
// the incremental index, whose first query is one full sort.
type freshView struct {
	part  Partitioner
	plans *int
}

func (p freshView) Name() string { return p.part.Name() }

func (p freshView) Plan(ctx *PlanContext, t *Task) (*Plan, error) {
	*p.plans++
	c := *ctx
	c.View = NewAvailView(slices.Clone(ctx.View.Times()))
	c.View.SetEligible(ctx.View.elig)
	return p.part.Plan(&c, t)
}

// availViewSizes are the fleet sizes the differential suites cover beside
// the small random ones: one and two nodes, one node either side of half a
// block, of one block and of two blocks, and a fleet of a thousand, laid
// out over 24 of its 32 blocks.
var availViewSizes = []int{1, 2, 31, 32, 33, 63, 64, 65, 129, 1000}

// driveAvailView interprets data as an op stream over an AvailView and the
// independent reference model, and fails the moment any query diverges. A
// second view undoes its log entry by entry where the first calls
// RollbackTo, and the two must end every
// rollback on the same order; the index invariants are checked on both
// after every operation. The first byte picks the fleet size. Times are
// drawn from a coarse grid so ties (the id tie-break) occur constantly, and
// apply batches range from one node to the whole cluster. The herd op moves
// a run of the current order — every node of it, or every second to fourth
// — onto one instant: whole runs drain their blocks empty and overflow the
// block they land in into split after split, strided ones split without
// draining until no free block is left and the index spreads afresh.
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
	next2 := func() int { return int(next())<<8 | int(next()) }
	gridTime := func(b byte) float64 { return float64(int(b)%48-8) * 0.5 }
	mkTime := func() float64 { return gridTime(next()) }

	n := 2 + int(next())%32
	if pick := int(next()) % (2 * len(availViewSizes)); pick < len(availViewSizes) {
		n = availViewSizes[pick]
	}
	// Whole-fleet inputs (snapshots, masks) of a big fleet come from a
	// generator seeded by two bytes, not from one byte per node.
	bulk := func() func() byte {
		if n <= 64 {
			return next
		}
		rng := rand.New(rand.NewSource(int64(next2())))
		return func() byte { return byte(rng.Intn(256)) }
	}
	newBase := func() []float64 {
		src := bulk()
		base := make([]float64, n)
		for i := range base {
			base[i] = gridTime(src())
		}
		return base
	}
	base := newBase()
	v := NewAvailView(slices.Clone(base))
	vs := NewAvailView(slices.Clone(base))
	model := newRefModel(base)
	// The committed-capacity summary rides along as queueState drives it: a
	// reset with every snapshot and mask, a commit with every change of the
	// base. Every third step it is settled — over a journal of up to three
	// operations, or past its limit and rebuilt — and held against a
	// from-scratch sort of the model's base.
	var sum baseCap
	sum.reset(base, nil)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}

	check := func(k int) {
		vs.ensureIndex() // a query rebuilds a dirty index: keep vs in step with v
		wantIDs, wantTimes := model.earliest(k)
		gotIDs, gotTimes := earliest(v, k)
		if !slices.Equal(gotIDs, wantIDs) || !slices.Equal(gotTimes, wantTimes) {
			t.Fatalf("EarliestInto(%d):\n got  %v %v\n want %v %v\n(times=%v elig=%v)",
				k, gotIDs, gotTimes, wantIDs, wantTimes, model.times, model.elig)
		}
		if at := v.EarliestTimeAt(k); at != wantTimes[k-1] {
			t.Fatalf("EarliestTimeAt(%d): got %v want %v", k, at, wantTimes[k-1])
		}
	}
	apply := func(ids []int, rel []float64) {
		v.Apply(ids, rel)
		vs.Apply(ids, rel)
		model.apply(ids, rel)
	}
	batch := func() (ids []int, rel []float64) {
		m := 1 + int(next())%n
		ids = make([]int, m)
		rel = make([]float64, m)
		for j := range ids {
			ids[j] = next2() % n
			rel[j] = mkTime()
		}
		return ids, rel
	}

	// Held checkpoints, oldest first: the views' mark and the model's copy
	// of the times at that instant.
	type checkpoint struct {
		v     int
		model []float64
	}
	var held []checkpoint
	pending := false
	for steps := 0; steps < 512 && off < len(data); steps++ {
		op := next() % 12
		if op == 0 || op == 6 || op == 7 {
			// A reset or full rollback retires every checkpoint; so does a
			// base commit, which the model's copies would not reflect.
			held = held[:0]
		}
		switch op {
		case 8: // checkpoint the undo log
			if len(held) < 8 {
				held = append(held, checkpoint{v.Mark(), model.checkpoint()})
			}
		case 9: // roll back to a held checkpoint, retiring the later ones
			if len(held) > 0 {
				i := int(next()) % len(held)
				v.RollbackTo(held[i].v)
				vs.rollbackStepwise(held[i].v)
				sameIndex(t, v, vs)
				model.rollbackTo(held[i].model)
				held = held[:i+1]
			}
		case 10: // commit up to a held checkpoint, retiring the earlier ones
			if len(held) > 0 {
				i := int(next()) % len(held)
				v.CommitPrefix(held[i].v)
				vs.CommitPrefix(held[i].v)
				model.commitPrefix(held[i].model)
				sum.commit(all, model.base)
				held = held[i:]
			}
		case 0: // Reset to a fresh snapshot
			base = newBase()
			v.Reset(slices.Clone(base))
			vs.Reset(slices.Clone(base))
			model.reset(base)
			sum.reset(base, nil)
			pending = false
		case 1: // SetEligible with a random mask (at least one node up)
			src := bulk()
			elig := make([]bool, n)
			any := false
			for i := range elig {
				elig[i] = src()%4 != 0
				any = any || elig[i]
			}
			if !any {
				elig[next2()%n] = true
			}
			v.SetEligible(elig)
			vs.SetEligible(elig)
			model.setEligible(elig)
			sum.reset(model.base, elig)
		case 2: // Apply a tentative batch (duplicates allowed)
			apply(batch())
			pending = true
		case 11: // herd a run of the current order onto one instant
			order, _ := model.earliest(n)
			m, from, stride := 1+next2()%n, next2()%n, 1+int(next())%4
			ids := make([]int, m)
			rel := make([]float64, m)
			at := mkTime()
			for j := range ids {
				ids[j] = order[(from+j*stride)%n]
				rel[j] = at
			}
			apply(ids, rel)
			pending = true
		case 3, 4: // query a random prefix
			check(1 + next2()%v.Eligible())
		case 5: // order-statistic query without materialising
			k := 1 + next2()%v.Eligible()
			_, wantTimes := model.earliest(k)
			vs.ensureIndex()
			if at := v.EarliestTimeAt(k); at != wantTimes[k-1] {
				t.Fatalf("EarliestTimeAt(%d): got %v want %v (times=%v elig=%v)",
					k, at, wantTimes[k-1], model.times, model.elig)
			}
		case 6: // Rollback to base
			v.Rollback()
			vs.rollbackStepwise(vs.undoBase)
			sameIndex(t, v, vs)
			model.rollback()
			pending = false
		case 7: // CommitBase (requires no tentative assignments)
			if pending {
				v.Rollback()
				vs.rollbackStepwise(vs.undoBase)
				model.rollback()
				pending = false
			}
			ids, rel := batch()
			v.CommitBase(ids, rel)
			vs.CommitBase(ids, rel)
			model.commitBase(ids, rel)
			sum.commit(ids, rel)
		}
		if steps%3 == 2 {
			checkBaseCap(t, &sum, model.base, model.elig)
		}
		indexOrder(t, v)
		indexOrder(t, vs)
	}
	check(v.Eligible())
	v.Rollback()
	vs.rollbackStepwise(vs.undoBase)
	sameIndex(t, v, vs)
	model.rollback()
	check(v.Eligible())
}

// TestAvailViewDifferential drives long random op sequences over the
// indexed view and the independent reference
// model, across the fleet sizes of availViewSizes, the small random ones,
// and a spread of seeds.
func TestAvailViewDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for pick := 0; pick <= len(availViewSizes); pick++ {
		trials := 60
		if pick < len(availViewSizes) && availViewSizes[pick] > 256 {
			trials = 6 // the reference model sorts the fleet for every query
		}
		for trial := 0; trial < trials; trial++ {
			data := make([]byte, 80+rng.Intn(2000))
			rng.Read(data)
			data[1] = byte(pick)
			driveAvailView(t, data)
		}
	}
}

// TestAvailViewBlockEvents scripts, on a fleet of a thousand, each thing
// that can happen to a block — drained empty, overflowed into a split, no
// free block left and the keys spread afresh — with a mask that puts
// ineligible nodes on both sides of block boundaries, and requires the
// whole order to match the reference model after every step.
func TestAvailViewBlockEvents(t *testing.T) {
	const n = 1000
	base := make([]float64, n)
	elig := make([]bool, n)
	for i := range base {
		base[i] = float64(i % 97)
		elig[i] = i%3 != 0 // some 334 masked nodes: five blocks and a part
	}
	v := NewAvailView(slices.Clone(base))
	model := newRefModel(base)
	v.SetEligible(elig)
	model.setEligible(elig)
	var drains, splits, respreads int
	step := func(ids []int, rel []float64) {
		t.Helper()
		for i := range ids {
			dir, free := len(v.dir), len(v.free)
			v.Apply(ids[i:i+1], rel[i:i+1])
			switch {
			case len(v.free) > free+1: // a drain frees one block, a respread a quarter of them
				respreads++
			case len(v.dir) < dir:
				drains++
			case len(v.dir) > dir:
				splits++
			}
		}
		model.apply(ids, rel)
		gotIDs, gotTimes := indexOrder(t, v)
		wantIDs, wantTimes := model.earliest(n)
		if !slices.Equal(gotIDs, wantIDs) || !slices.Equal(gotTimes, wantTimes) {
			t.Fatalf("index order differs from the reference sort:\n got  %v\n want %v", gotIDs, wantIDs)
		}
	}
	v.ensureIndex()
	if first, last := v.block(v.dir[0])[0].id, v.block(v.dir[len(v.dir)-1])[0].id; !elig[first] || elig[last] {
		t.Fatalf("masked nodes do not fill the last blocks")
	}

	// The 100 latest eligible nodes, more than two blocks of them, move to
	// the front one by one: their blocks drain, the first block splits.
	order, _ := model.earliest(v.Eligible())
	for _, id := range order[len(order)-100:] {
		step([]int{id}, []float64{-1})
	}
	if drains == 0 || splits == 0 {
		t.Fatalf("moving 100 nodes to the front drained %d blocks and split %d", drains, splits)
	}
	// Every second node, masked ones too, moves to the front of its class:
	// no block drains, the leading blocks split until none is free.
	order, _ = model.earliest(n)
	for i := 0; i < n && respreads == 0; i += 2 {
		step([]int{order[n-1-i]}, []float64{-2})
	}
	if respreads == 0 {
		t.Fatalf("index never ran out of free blocks (%d splits, %d drains)", splits, drains)
	}
	// And back: the undo log restores the base order across all of it.
	v.Rollback()
	model.rollback()
	step(nil, nil)
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
	for pick := 0; pick <= len(availViewSizes); pick++ {
		seed := make([]byte, 300)
		rng.Read(seed)
		seed[1] = byte(pick)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		driveAvailView(t, data)
	})
}

// TestAvailViewRollbackRestoresBase covers the undo log: any interleaving
// of Apply batches is fully reversed by one Rollback.
func TestAvailViewRollbackRestoresBase(t *testing.T) {
	base := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	v := NewAvailView(append([]float64(nil), base...))
	wantIDs, wantTimes := earliest(v, 8)
	v.Apply([]int{1, 3, 5}, []float64{50, 60, 70})
	v.Apply([]int{1, 0}, []float64{80, 90})
	v.Rollback()
	ids, times := earliest(v, 8)
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
	ids, _ := earliest(v, 2)
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
