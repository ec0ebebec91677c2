package rt

import (
	"fmt"
	"slices"
)

// blockCap is the capacity of one block of the order index. A fleet of up
// to 64 nodes — a pool shard, the paper's 16-node cluster — lives in one
// block for good, and no retiming shifts more than one block's 1 KB.
const blockCap = 64

// AvailView is a mutable view of per-node release times used while running
// the schedulability test: the test stacks tentative assignments for every
// task in the waiting queue on top of the committed cluster state, and
// discards the view if any task would miss its deadline.
//
// EarliestInto returns the k nodes that become available soonest — the
// "identify the earliest time t when AN(t) ≥ n" step of Fig. 2 generalised
// to per-node release times.
//
// The view is an order index over the (eligible, time, id) total order: one
// sorted array of (time, id) keys cut into blocks of blockCap slots, behind
// a directory that lists the blocks in key order. Retiming a node (Apply,
// RollbackTo, CommitBase) is two binary searches — directory, then block —
// for the old key, two for the new one, and a shift of the slots between
// them: one ranged copy when both fall into the same block, which is always
// the case when the fleet fits one block, and one copy in each block
// otherwise. A block that is full when a key arrives gives its upper half
// to a free block, a block that lost its last key goes back on the free
// list, and only when no free block is left are the keys spread evenly over
// the blocks again, in O(n). EarliestInto(k) copies the first k slots out
// of the leading blocks, and EarliestTimeAt(k) walks the directory's block
// counts to the k-th slot. A full rebuild — one O(n log n) sort — happens
// only on Reset and SetEligible. The scheduler's view resets only when the
// fleet changed under it (node churn, growth, out-of-band commits), so a
// steady stream of submits and commits performs no rebuild at all.
//
// Tentative assignments are undo-logged with checkpoints: Mark names a
// position in the log, RollbackTo undoes back to it with one retiming per
// changed node, and CommitPrefix folds the assignments logged before a mark
// into the base without touching the index. The admission test leaves the
// accepted schedule applied and records one mark per queue position, so the
// next arrival rewinds only the part of the schedule ordered after it and a
// commit of the queue's head is a cut of the log's head. CommitBase folds
// release times that were never applied tentatively.
type AvailView struct {
	times []float64 // per node id: current (tentative) release time

	// elig optionally masks nodes out of placement (drained or failed
	// fleet members): ineligible nodes sort after every eligible one and
	// EarliestInto never returns them. nil means every node is eligible —
	// the fixed-fleet path pays a nil check and nothing else.
	elig     []bool
	eligible int // count of eligible nodes (== len(times) when elig is nil)

	// The order index. Block b holds cnt[b] keys, sorted, in slots
	// [b*blockCap, b*blockCap+cnt[b]) of keys; dir lists the blocks in use
	// in key order, none of them empty, and free the others. A key carries
	// its node's time, a copy of times[id], so that a search reads one
	// array and a shift moves one.
	keys  []availKey
	cnt   []int32
	dir   []int32
	free  []int32
	order []int // all node ids in key order: scratch of rebuild and respread
	dirty bool  // index must be rebuilt from times/elig before the next query

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

	rebuilds int // full index rebuilds performed, read by the package tests
}

// availKey is one slot of the order index.
type availKey struct {
	t  float64
	id int
}

// NewAvailView wraps the given per-node release times. The slice is owned
// by the view afterwards.
func NewAvailView(times []float64) *AvailView {
	v := &AvailView{}
	v.Reset(times)
	return v
}

// Reset re-points the view at a new per-node release-time snapshot, reusing
// the internal index arrays. The slice is owned by the view afterwards. The
// eligibility mask is cleared (every node eligible again) and any pending
// tentative assignments are forgotten — the snapshot is the new base.
func (v *AvailView) Reset(times []float64) {
	v.times = times
	n := len(times)
	// Twice the blocks the keys fill: layout leaves a quarter of them free
	// for splits.
	blocks := 2 * ((n + blockCap - 1) / blockCap)
	if cap(v.order) < n || cap(v.cnt) < blocks {
		v.order = make([]int, n)
		v.restored = make([]uint32, n)
		v.keys = make([]availKey, blocks*blockCap)
		v.cnt = make([]int32, blocks)
		v.dir = make([]int32, 0, blocks)
		v.free = make([]int32, 0, blocks)
	} else {
		v.order = v.order[:n]
		v.restored = v.restored[:n]
		v.cnt = v.cnt[:blocks]
	}
	v.elig = nil
	v.eligible = n
	v.undoID = v.undoID[:0]
	v.undoTime = v.undoTime[:0]
	v.undoBase = 0
	v.dirty = true
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
}

// N returns the number of nodes.
func (v *AvailView) N() int { return len(v.times) }

// before reports whether node a (at time ta) sorts before node b (at tb)
// under the view's total order (eligible, time, id) — the single comparison
// behind the rebuild's full sort and every search of the index. Without a
// mask (or with every node eligible) it is exactly the (time, id) order.
func (v *AvailView) before(ta float64, a int, tb float64, b int) bool {
	if v.elig != nil && v.elig[a] != v.elig[b] {
		return v.elig[a]
	}
	if ta != tb {
		return ta < tb
	}
	return a < b
}

// ensureIndex rebuilds the index from times/elig when the whole key space
// changed (Reset, SetEligible): the full sort every incremental retiming
// must agree with. Single retimings never set dirty — setTime repairs the
// index in place.
func (v *AvailView) ensureIndex() {
	if !v.dirty {
		return
	}
	v.rebuilds++
	for i := range v.order {
		v.order[i] = i
	}
	slices.SortFunc(v.order, func(a, b int) int {
		if v.before(v.times[a], a, v.times[b], b) {
			return -1
		}
		return 1
	})
	v.layout(v.order)
	v.dirty = false
}

// layout deals the node ids, given in key order, evenly over three quarters
// of the blocks and frees the rest.
func (v *AvailView) layout(rest []int) {
	used := len(v.cnt) * 3 / 4
	v.dir, v.free = v.dir[:0], v.free[:0]
	for b := len(v.cnt) - 1; b >= used; b-- {
		v.free = append(v.free, int32(b))
	}
	for b := 0; b < used; b++ {
		n := len(rest) / (used - b)
		for i, id := range rest[:n] {
			v.keys[b*blockCap+i] = availKey{v.times[id], id}
		}
		v.cnt[b] = int32(n)
		v.dir = append(v.dir, int32(b))
		rest = rest[n:]
	}
}

// respread collects the keys in order and lays them out afresh: the
// fallback of a split that finds no free block.
func (v *AvailView) respread() {
	n := 0
	for _, b := range v.dir {
		for _, k := range v.block(b) {
			v.order[n] = k.id
			n++
		}
	}
	v.layout(v.order[:n])
}

// block returns the keys of block b.
func (v *AvailView) block(b int32) []availKey {
	base := int(b) * blockCap
	return v.keys[base : base+int(v.cnt[b])]
}

// blockOf returns the directory position of the block whose key range
// covers (t, id): the last block whose first key does not sort after it,
// or the first block of all.
func (v *AvailView) blockOf(t float64, id int) int {
	lo, hi := 1, len(v.dir) // blocks before lo start at or before the key, blocks from hi on after it
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if first := v.keys[int(v.dir[m])*blockCap]; v.before(t, id, first.t, first.id) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo - 1
}

// rank returns how many of a block's keys sort before (t, id): a walk over
// the keys, which the processor predicts right until the last step. Where
// the walk would be longer than a few keys, a bisection on the time alone
// shortens it first — each step of that a branch guessed wrong every other
// time — unless a mask is installed: then times do not rise across the
// block, and masks are rare.
func (v *AvailView) rank(keys []availKey, t float64, id int) int {
	lo := 0
	if v.elig != nil {
		for lo < len(keys) && v.before(keys[lo].t, keys[lo].id, t, id) {
			lo++
		}
		return lo
	}
	for n := len(keys); n > 8; {
		half := n >> 1
		if keys[lo+half-1].t < t {
			lo += half
		}
		n -= half
	}
	for lo < len(keys) && (keys[lo].t < t || keys[lo].t == t && keys[lo].id < id) {
		lo++
	}
	return lo
}

// setTime retimes one node, repairing the index in place unless a rebuild
// is already pending (in which case the rebuild will pick the new time up).
func (v *AvailView) setTime(id int, t float64) {
	old := v.times[id]
	v.times[id] = t
	if v.dirty {
		return
	}
	p, q := v.blockOf(old, id), v.blockOf(t, id)
	b := v.dir[p]
	keys := v.block(b)
	i := v.rank(keys, old, id) // the slot holding id
	if i == len(keys) || keys[i].id != id {
		panic(fmt.Sprintf("rt: AvailView: node %d at %v is not where the index has it", id, old))
	}
	if p == q {
		// Same block: the slots between the old and the new position move
		// one place towards the old one.
		j := v.rank(keys, t, id)
		if j > i {
			j--
			copy(keys[i:j], keys[i+1:j+1])
		} else {
			copy(keys[j+1:i+1], keys[j:i])
		}
		keys[j] = availKey{t, id}
		return
	}
	copy(keys[i:], keys[i+1:])
	v.cnt[b]--
	if len(keys) == 1 {
		v.dir = slices.Delete(v.dir, p, p+1)
		v.free = append(v.free, b)
		if q > p {
			q--
		}
	}
	v.insert(q, t, id)
}

// insert adds the key (t, id) to the block at directory position p, whose
// range covers it, splitting the block when it is full.
func (v *AvailView) insert(p int, t float64, id int) {
	b := v.dir[p]
	if v.cnt[b] == blockCap {
		if len(v.free) == 0 {
			v.respread()
			b = v.dir[v.blockOf(t, id)]
		} else {
			// The upper half moves to a free block, next in the directory.
			const half = blockCap / 2
			nb := v.free[len(v.free)-1]
			v.free = v.free[:len(v.free)-1]
			v.cnt[b], v.cnt[nb] = half, half
			upper := v.block(nb)
			copy(upper, v.keys[int(b)*blockCap+half:])
			v.dir = slices.Insert(v.dir, p+1, nb)
			if !v.before(t, id, upper[0].t, upper[0].id) {
				b = nb
			}
		}
	}
	j := v.rank(v.block(b), t, id)
	v.cnt[b]++
	keys := v.block(b) // one slot longer now
	copy(keys[j+1:], keys[j:])
	keys[j] = availKey{t, id}
}

func (v *AvailView) checkK(k int) {
	if k < 1 || k > v.eligible {
		panic(fmt.Sprintf("rt: AvailView: %d earliest with %d eligible of %d nodes", k, v.eligible, len(v.times)))
	}
}

// EarliestInto fills ids and times (which must have equal length k) with
// the k earliest-available eligible nodes, ordered by (release time, id).
// It panics if k is out of range — callers size k against the eligible
// count (== N() without a mask).
func (v *AvailView) EarliestInto(ids []int, times []float64) {
	if len(ids) != len(times) {
		panic(fmt.Sprintf("rt: AvailView.EarliestInto: %d ids, %d times", len(ids), len(times)))
	}
	v.checkK(len(ids))
	v.ensureIndex()
	n := 0
	for _, b := range v.dir {
		for _, k := range v.block(b) {
			if n == len(ids) {
				return
			}
			ids[n], times[n] = k.id, k.t
			n++
		}
	}
}

// EarliestTimeAt returns the release time of the k-th earliest eligible
// node (1-based) — the pure order-statistic query behind the admission
// fast-reject: a walk over the directory's block counts.
func (v *AvailView) EarliestTimeAt(k int) float64 {
	v.checkK(k)
	v.ensureIndex()
	for _, b := range v.dir {
		if n := int(v.cnt[b]); k > n {
			k -= n
			continue
		}
		return v.keys[int(b)*blockCap+k-1].t
	}
	panic("rt: AvailView: block counts do not add up to the fleet")
}

// Covers reports whether the eligible nodes, each from the later of its time
// and now on, offer need node-seconds before d between them: a walk over the
// earliest keys that ends with the node that completes the sum.
func (v *AvailView) Covers(need, now, d float64) bool {
	v.ensureIndex()
	left := v.eligible
	for _, b := range v.dir {
		for _, k := range v.block(b) {
			if left--; left < 0 || !(k.t < d) {
				return false
			}
			if need -= d - max(k.t, now); need <= 0 {
				return true
			}
		}
	}
	return false
}

// Apply records tentative assignments: node ids[i] will next be free at
// release[i]. Every change is undo-logged so RollbackTo can restore any
// earlier checkpoint.
func (v *AvailView) Apply(ids []int, release []float64) {
	if len(ids) != len(release) {
		panic(fmt.Sprintf("rt: AvailView.Apply: %d ids, %d releases", len(ids), len(release)))
	}
	for i, id := range ids {
		r := release[i]
		if r == v.times[id] {
			continue
		}
		v.undoID = append(v.undoID, id)
		v.undoTime = append(v.undoTime, v.times[id])
		v.setTime(id, r)
	}
}

// Mark returns a checkpoint of the undo log: RollbackTo(m) undoes exactly
// the Apply calls made after Mark returned m. A mark stays valid until the
// view is rolled back past it, committed past it, or Reset.
func (v *AvailView) Mark() int { return v.undoBase + len(v.undoID) }

// RollbackTo undoes every Apply made after the mark was taken. A node
// retimed several times since the mark goes straight back to the oldest
// time logged for it: the order is a function of the keys alone, so it ends
// as undoing entry by entry would leave it.
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
	for i, id := range ids {
		if r := release[i]; r != v.times[id] {
			v.setTime(id, r)
		}
	}
}

// Times returns the underlying per-node release times (not a copy). The
// times reflect any tentative assignments currently applied.
func (v *AvailView) Times() []float64 { return v.times }
