package rt

import (
	"fmt"
	"slices"
)

// AvailView is a mutable view of per-node release times used while running
// the schedulability test: the test stacks tentative assignments for every
// task in the waiting queue on top of the committed cluster state, and
// discards the view if any task would miss its deadline.
//
// Earliest returns the k nodes that become available soonest — the
// "identify the earliest time t when AN(t) ≥ n" step of Fig. 2 generalised
// to per-node release times.
//
// The view is an order-statistic index over the (eligible, time, id) total
// order, implemented as a size-augmented treap on an arena of parallel
// arrays (no per-node allocations). Per-node retiming (Apply, RollbackTo,
// CommitBase) is O(log n); Earliest(k) materialises the first k nodes of
// the in-order walk incrementally, so a partitioner growing k one node at a
// time across its search loop pays O(1) amortised per inspected node; and
// EarliestTimeAt(k) answers the pure order-statistic query in O(log n)
// without materialising anything. A full rebuild — O(n log n) — happens
// only on Reset and SetEligible. The scheduler's own view resets when the
// fleet changed under it (node churn, growth, out-of-band commits); a
// speculation context's view additionally resets whenever it has to
// re-snapshot, i.e. when another submitter's install moved the epoch. A
// context whose own outcome installed carries its view over, so a single
// submitter's steady state performs no rebuild at all.
//
// Tentative assignments are undo-logged with checkpoints: Mark names a
// position in the log, RollbackTo undoes back to it in O(changed · log n),
// and CommitPrefix folds the assignments logged before a mark into the
// base without touching the index. The admission test leaves the accepted
// schedule applied and records one mark per queue position, so the next
// arrival rewinds only the part of the schedule ordered after it and a
// commit of the queue's head is a cut of the log's head. CommitBase folds
// release times that were never applied tentatively.
type AvailView struct {
	times []float64 // per node id: current (tentative) release time

	// elig optionally masks nodes out of placement (drained or failed
	// fleet members): ineligible nodes sort after every eligible one and
	// Earliest never returns them. nil means every node is eligible — the
	// fixed-fleet path pays a nil check and nothing else.
	elig     []bool
	eligible int // count of eligible nodes (== len(times) when elig is nil)

	// Size-augmented treap over node ids, keyed by (eligible, time, id).
	// Children and subtree sizes live in arenas indexed by node id; -1 is
	// the nil child. Priorities come from a deterministic xorshift stream,
	// so runs are reproducible.
	left  []int32
	right []int32
	size  []int32
	prio  []uint64
	root  int32
	dirty bool   // tree must be rebuilt from times/elig before the next query
	rng   uint64 // xorshift64 state for treap priorities

	// Undo log for tentative Apply calls, replayed in reverse by
	// RollbackTo. undoBase is the mark of undoID[0]: marks count every entry
	// ever logged since the last Reset, so they stay valid when CommitPrefix
	// cuts the head of the log.
	undoID   []int
	undoTime []float64
	undoBase int
	// restored[id] == rollbacks marks the nodes the running RollbackTo has
	// already put back.
	restored  []uint32
	rollbacks uint32

	// Materialised prefix of the in-order walk: pids/ptimes[:plen] are the
	// plen earliest nodes. walk is the suspended walk continuation (the
	// right-spine stack), so extending the prefix by one node is O(1)
	// amortised. Any mutation invalidates the prefix.
	pids     []int
	ptimes   []float64
	plen     int
	walk     []int32
	walkInit bool

	// refMode serves every query from a full reference sort instead of the
	// treap — the testing hook behind the differential and equivalence
	// suites (the sort is the specification the index must match bit for
	// bit).
	refMode bool

	rebuilds int // full index rebuilds performed, read by the package tests
}

// NewAvailView wraps the given per-node release times. The slice is owned
// by the view afterwards.
func NewAvailView(times []float64) *AvailView {
	v := &AvailView{rng: 0x9e3779b97f4a7c15, root: -1}
	v.Reset(times)
	return v
}

// Reset re-points the view at a new per-node release-time snapshot, reusing
// the internal index arenas. The slice is owned by the view afterwards. The
// eligibility mask is cleared (every node eligible again) and any pending
// tentative assignments are forgotten — the snapshot is the new base.
func (v *AvailView) Reset(times []float64) {
	v.times = times
	n := len(times)
	if cap(v.pids) < n {
		v.pids = make([]int, n)
		v.ptimes = make([]float64, n)
		v.left = make([]int32, n)
		v.right = make([]int32, n)
		v.size = make([]int32, n)
		v.prio = make([]uint64, n)
		v.restored = make([]uint32, n)
	} else {
		v.pids = v.pids[:n]
		v.ptimes = v.ptimes[:n]
		v.left = v.left[:n]
		v.right = v.right[:n]
		v.size = v.size[:n]
		v.prio = v.prio[:n]
		v.restored = v.restored[:n]
	}
	v.elig = nil
	v.eligible = n
	v.undoID = v.undoID[:0]
	v.undoTime = v.undoTime[:0]
	v.undoBase = 0
	v.dirty = true
	v.invalidatePrefix()
}

// SetEligible masks nodes out of placement: node id is placeable iff
// elig[id]. The slice is referenced, not copied — the caller keeps it
// alive and unmodified until the next Reset, which clears the mask (every
// node eligible again). A nil or all-true mask reproduces the unmasked
// ordering bit for bit.
func (v *AvailView) SetEligible(elig []bool) {
	if elig != nil && len(elig) != len(v.times) {
		panic(fmt.Sprintf("rt: AvailView.SetEligible: %d mask entries, %d nodes", len(elig), len(v.times)))
	}
	v.elig = elig
	v.eligible = len(v.times)
	if elig != nil {
		v.eligible = 0
		for _, e := range elig {
			if e {
				v.eligible++
			}
		}
	}
	v.dirty = true
	v.invalidatePrefix()
}

// N returns the number of nodes.
func (v *AvailView) N() int { return len(v.times) }

// Eligible returns the number of placeable nodes — callers size Earliest's
// k against it, not against N, when a mask is installed.
func (v *AvailView) Eligible() int { return v.eligible }

// before reports whether node a (at time ta) sorts before node b (at tb)
// under the view's total order (eligible, time, id) — the single comparison
// both the treap and the reference full sort use, so they agree bit for
// bit. Without a mask (or with every node eligible) it is exactly the
// (time, id) order.
func (v *AvailView) before(ta float64, a int, tb float64, b int) bool {
	if v.elig != nil && v.elig[a] != v.elig[b] {
		return v.elig[a]
	}
	if ta != tb {
		return ta < tb
	}
	return a < b
}

func (v *AvailView) beforeID(a, b int32) bool {
	return v.before(v.times[a], int(a), v.times[b], int(b))
}

func (v *AvailView) nextPrio() uint64 {
	v.rng ^= v.rng << 13
	v.rng ^= v.rng >> 7
	v.rng ^= v.rng << 17
	return v.rng
}

func (v *AvailView) invalidatePrefix() {
	v.plen = 0
	v.walkInit = false
}

// ensureTree rebuilds the treap from times/elig when the whole key space
// changed (Reset, SetEligible). Single retimings never set dirty — they are
// repaired in place by remove+insert.
func (v *AvailView) ensureTree() {
	if !v.dirty {
		return
	}
	v.rebuilds++
	v.root = -1
	for id := range v.times {
		v.prio[id] = v.nextPrio()
		v.root = v.insert(v.root, int32(id))
	}
	v.dirty = false
}

func (v *AvailView) fix(n int32) {
	s := int32(1)
	if l := v.left[n]; l >= 0 {
		s += v.size[l]
	}
	if r := v.right[n]; r >= 0 {
		s += v.size[r]
	}
	v.size[n] = s
}

// insert adds id (keyed by its current time) under root and returns the new
// subtree root, rotating to restore the heap order on priorities.
func (v *AvailView) insert(root, id int32) int32 {
	if root < 0 {
		v.left[id], v.right[id], v.size[id] = -1, -1, 1
		return id
	}
	if v.beforeID(id, root) {
		l := v.insert(v.left[root], id)
		v.left[root] = l
		if v.prio[l] > v.prio[root] {
			v.left[root] = v.right[l]
			v.right[l] = root
			v.fix(root)
			v.fix(l)
			return l
		}
	} else {
		r := v.insert(v.right[root], id)
		v.right[root] = r
		if v.prio[r] > v.prio[root] {
			v.right[root] = v.left[r]
			v.left[r] = root
			v.fix(root)
			v.fix(r)
			return r
		}
	}
	v.fix(root)
	return root
}

// remove detaches id from the subtree at root; id's key must still be the
// time it was inserted under.
func (v *AvailView) remove(root, id int32) int32 {
	if root == id {
		return v.mergeSub(v.left[root], v.right[root])
	}
	if v.beforeID(id, root) {
		v.left[root] = v.remove(v.left[root], id)
	} else {
		v.right[root] = v.remove(v.right[root], id)
	}
	v.size[root]--
	return root
}

func (v *AvailView) mergeSub(a, b int32) int32 {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	if v.prio[a] > v.prio[b] {
		v.right[a] = v.mergeSub(v.right[a], b)
		v.fix(a)
		return a
	}
	v.left[b] = v.mergeSub(a, v.left[b])
	v.fix(b)
	return b
}

// setTime retimes one node, repairing the index in place unless a rebuild
// is already pending (in which case the rebuild will pick the new time up).
func (v *AvailView) setTime(id int, t float64) {
	if v.dirty || v.refMode {
		v.times[id] = t
		return
	}
	v.root = v.remove(v.root, int32(id))
	v.times[id] = t
	v.root = v.insert(v.root, int32(id))
}

// ensurePrefix extends the materialised in-order prefix to at least k
// nodes. The walk stack persists between calls, so a caller growing k by
// one each iteration pays O(1) amortised per new node.
func (v *AvailView) ensurePrefix(k int) {
	if v.refMode {
		if v.plen < len(v.times) {
			v.refSort()
		}
		return
	}
	if v.plen >= k {
		return
	}
	v.ensureTree()
	if !v.walkInit {
		v.walk = v.walk[:0]
		for n := v.root; n >= 0; n = v.left[n] {
			v.walk = append(v.walk, n)
		}
		v.walkInit = true
	}
	for v.plen < k {
		top := v.walk[len(v.walk)-1]
		v.walk = v.walk[:len(v.walk)-1]
		v.pids[v.plen] = int(top)
		v.ptimes[v.plen] = v.times[top]
		v.plen++
		for n := v.right[top]; n >= 0; n = v.left[n] {
			v.walk = append(v.walk, n)
		}
	}
}

// refSort materialises the full order by sorting — the reference
// implementation the treap is differentially tested against.
func (v *AvailView) refSort() {
	for i := range v.pids {
		v.pids[i] = i
	}
	slices.SortFunc(v.pids, func(a, b int) int {
		if v.before(v.times[a], a, v.times[b], b) {
			return -1
		}
		return 1
	})
	for i, id := range v.pids {
		v.ptimes[i] = v.times[id]
	}
	v.plen = len(v.pids)
}

func (v *AvailView) checkK(k int) {
	if k < 1 || k > v.eligible {
		panic(fmt.Sprintf("rt: AvailView.Earliest(%d) with %d eligible of %d nodes", k, v.eligible, len(v.times)))
	}
}

// Earliest returns the ids and release times of the k earliest-available
// eligible nodes, ordered by (release time, id). The returned slices are
// fresh copies owned by the caller — they stay valid across subsequent
// Apply/Earliest/RollbackTo calls. It panics if k is out of range — callers
// size k against Eligible() (== N() without a mask). Hot paths that already
// own suitably-sized buffers should prefer EarliestInto.
func (v *AvailView) Earliest(k int) (ids []int, times []float64) {
	v.checkK(k)
	v.ensurePrefix(k)
	ids = make([]int, k)
	times = make([]float64, k)
	copy(ids, v.pids[:k])
	copy(times, v.ptimes[:k])
	return ids, times
}

// EarliestInto fills ids and times (which must have equal length k) with
// the k earliest-available eligible nodes, ordered by (release time, id) —
// the allocation-free form of Earliest for callers that own the buffers.
func (v *AvailView) EarliestInto(ids []int, times []float64) {
	if len(ids) != len(times) {
		panic(fmt.Sprintf("rt: AvailView.EarliestInto: %d ids, %d times", len(ids), len(times)))
	}
	k := len(ids)
	v.checkK(k)
	v.ensurePrefix(k)
	copy(ids, v.pids[:k])
	copy(times, v.ptimes[:k])
}

// EarliestTimeAt returns the release time of the k-th earliest eligible
// node (1-based) — the pure order-statistic query behind the admission
// fast-reject. O(log n); it does not materialise the prefix.
func (v *AvailView) EarliestTimeAt(k int) float64 {
	v.checkK(k)
	if v.refMode || k <= v.plen {
		v.ensurePrefix(k)
		return v.ptimes[k-1]
	}
	v.ensureTree()
	n := v.root
	kk := int32(k)
	for {
		var ls int32
		if l := v.left[n]; l >= 0 {
			ls = v.size[l]
		}
		if kk <= ls {
			n = v.left[n]
			continue
		}
		if kk == ls+1 {
			return v.times[n]
		}
		kk -= ls + 1
		n = v.right[n]
	}
}

// Apply records tentative assignments: node ids[i] will next be free at
// release[i]. Every change is undo-logged so RollbackTo can restore any
// earlier checkpoint.
func (v *AvailView) Apply(ids []int, release []float64) {
	if len(ids) != len(release) {
		panic(fmt.Sprintf("rt: AvailView.Apply: %d ids, %d releases", len(ids), len(release)))
	}
	mutated := false
	for i, id := range ids {
		r := release[i]
		if r == v.times[id] {
			continue
		}
		v.undoID = append(v.undoID, id)
		v.undoTime = append(v.undoTime, v.times[id])
		v.setTime(id, r)
		mutated = true
	}
	if mutated {
		v.invalidatePrefix()
	}
}

// Mark returns a checkpoint of the undo log: RollbackTo(m) undoes exactly
// the Apply calls made after Mark returned m. A mark stays valid until the
// view is rolled back past it, committed past it, or Reset.
func (v *AvailView) Mark() int { return v.undoBase + len(v.undoID) }

// RollbackTo undoes every Apply made after the mark was taken, in
// O(changed · log n). A node retimed several times since the mark goes
// straight back to the oldest time logged for it: the index is a function
// of the keys and the priorities alone, so it ends as undoing entry by
// entry would leave it.
func (v *AvailView) RollbackTo(mark int) {
	keep := mark - v.undoBase
	if keep < 0 || keep > len(v.undoID) {
		panic(fmt.Sprintf("rt: AvailView.RollbackTo(%d) outside the undo log [%d,%d]", mark, v.undoBase, v.Mark()))
	}
	if keep == len(v.undoID) {
		return
	}
	if v.rollbacks++; v.rollbacks == 0 {
		clear(v.restored)
		v.rollbacks = 1
	}
	for i, id := range v.undoID[keep:] {
		if v.restored[id] == v.rollbacks {
			continue
		}
		v.restored[id] = v.rollbacks
		if t := v.undoTime[keep+i]; t != v.times[id] {
			v.setTime(id, t)
		}
	}
	v.undoID = v.undoID[:keep]
	v.undoTime = v.undoTime[:keep]
	v.invalidatePrefix()
}

// CommitPrefix folds the tentative assignments made before the mark into
// the base: later rollbacks keep them, while the assignments made after
// the mark stay tentative on top. The times and the index are untouched —
// only the head of the undo log is cut — so committing the head of an
// applied schedule costs a copy of the remaining log and nothing else.
func (v *AvailView) CommitPrefix(mark int) {
	cut := mark - v.undoBase
	if cut < 0 || cut > len(v.undoID) {
		panic(fmt.Sprintf("rt: AvailView.CommitPrefix(%d) outside the undo log [%d,%d]", mark, v.undoBase, v.Mark()))
	}
	v.undoID = v.undoID[:copy(v.undoID, v.undoID[cut:])]
	v.undoTime = v.undoTime[:copy(v.undoTime, v.undoTime[cut:])]
	v.undoBase = mark
}

// CommitBase folds committed release times into the view's base snapshot:
// node ids[i] is busy until release[i] in the cluster's committed state
// now, so subsequent rollbacks keep the new times. It must not be called
// with tentative assignments pending — roll back first, or use CommitPrefix
// when the times being committed are the applied ones.
func (v *AvailView) CommitBase(ids []int, release []float64) {
	if len(v.undoID) != 0 {
		panic("rt: AvailView.CommitBase with tentative assignments pending")
	}
	if len(ids) != len(release) {
		panic(fmt.Sprintf("rt: AvailView.CommitBase: %d ids, %d releases", len(ids), len(release)))
	}
	mutated := false
	for i, id := range ids {
		r := release[i]
		if r == v.times[id] {
			continue
		}
		v.setTime(id, r)
		mutated = true
	}
	if mutated {
		v.invalidatePrefix()
	}
}

// Times returns the underlying per-node release times (not a copy). The
// times reflect any tentative assignments currently applied.
func (v *AvailView) Times() []float64 { return v.times }
