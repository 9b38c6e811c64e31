package mrc

import (
	"math/bits"
	"sync"

	"tradeoff/internal/trace"
)

// stackTree is the order-statistic index behind both profilers: an
// implicit LRU stack of tracked blocks whose stack-distance queries
// run in O(log n). Each tracked block occupies one access-time slot,
// and a block's stack distance is the number of live slots after its
// own. Two structures of flat arrays hold that state:
//
//   - occ keeps one occupancy bit per slot, 64 to a word, and a
//     Fenwick (binary indexed) tree over the words' popcounts answers
//     "live slots up to p" with one O(log words) walk plus one
//     popcount;
//   - table is an open-addressing (linear-probing, Fibonacci-hashed)
//     block → slot map at most 3/4 full, so each access costs one
//     find-or-insert probe; removal uses backward-shift deletion, so
//     there are no tombstones.
//
// Slots are consumed left to right, and an access to the block that
// already holds the newest slot (distance 0) consumes none. Moving a
// block's bit leaves the Fenwick tree alone when both slots sit in one
// word, and otherwise updates it only below the first node covering
// both words (move). When slots run out, renumber moves every block to its slot's rank among
// the live ones, 1..live, in place, doubling the slot bits only while
// more than half of them are live; the index therefore stays
// O(uniqueBlocks) in memory and O(log uniqueBlocks) per access
// ("scaled tree"), not O(log refs), and allocates only when the table
// or the slot bits double.
type stackTree struct {
	occ   []uint64    // bit p%64 of word p/64: slot p is live
	fen   []int       // Fenwick tree over popcount(occ[w]) at index w+1
	table []treeEntry // open-addressing block → slot table
	shift uint        // 64 − log2(len(table)): Fibonacci hash shift
	next  int         // next unused slot (1-based)
	live  int         // tracked blocks (live slots, table entries)
}

// treeEntry is one table cell; slot 0 marks it empty, since slots are
// numbered from 1.
type treeEntry struct {
	block uint64
	slot  int
}

// maxLoadNum/maxLoadDen bounds the table's occupancy: 3/4 keeps linear
// probing short while the table, the index's only per-block memory,
// stays small.
const maxLoadNum, maxLoadDen = 3, 4

// initialBits is log2 of a fresh index's slots and table cells.
const initialBits = 10

func newStackTree() stackTree {
	const size = 1 << initialBits
	return stackTree{
		occ:   make([]uint64, size/64),
		fen:   make([]int, size/64+1),
		table: make([]treeEntry, size),
		shift: 64 - initialBits,
		next:  1,
	}
}

// cellsFor returns the table size a fresh index grows to while it
// tracks live blocks.
func cellsFor(live int) int {
	cells := 1 << initialBits
	for live*maxLoadDen > cells*maxLoadNum {
		cells *= 2
	}
	return cells
}

// home returns block's preferred table cell (Fibonacci hashing: the
// top bits of the product with 2⁶⁴/φ spread runs of consecutive
// blocks evenly).
func (t *stackTree) home(block uint64) int {
	return int((block * 0x9E3779B97F4A7C15) >> t.shift)
}

// add adds delta to word w's count in the Fenwick tree.
//
//perf:hot
func (t *stackTree) add(w, delta int) {
	for i := w + 1; i < len(t.fen); i += i & -i {
		t.fen[i] += delta
	}
}

// find returns the cell holding block, or else the empty cell that
// ends block's probe run, where it belongs.
//
//perf:hot
func (t *stackTree) find(block uint64) int {
	mask := len(t.table) - 1
	i := t.home(block)
	for t.table[i].slot != 0 && t.table[i].block != block {
		i = (i + 1) & mask
	}
	return i
}

// kill clears live slot p.
func (t *stackTree) kill(p int) {
	t.occ[p>>6] &^= 1 << uint(p&63)
	t.add(p>>6, -1)
	t.live--
}

// rank returns the number of live slots in 1..p.
//
//perf:hot
func (t *stackTree) rank(p int) int {
	w := p >> 6
	s := bits.OnesCount64(t.occ[w] << (63 - uint(p&63)))
	for i := w; i > 0; i -= i & -i {
		s += t.fen[i]
	}
	return s
}

// move shifts one live slot from word a to a later word b in the
// Fenwick tree: add(a, −1) plus add(b, +1), whose update paths run
// upward and merge at the first node covering both words. Above it
// the two updates cancel, so the walk stops there, and nearby words
// touch only a node or two.
//
//perf:hot
func (t *stackTree) move(a, b int) {
	i, j, n := a+1, b+1, len(t.fen)
	for i != j {
		if i < j {
			if i >= n {
				return
			}
			t.fen[i]--
			i += i & -i
		} else {
			if j >= n {
				return
			}
			t.fen[j]++
			j += j & -j
		}
	}
}

// access moves block to the top of the LRU stack and returns the
// stack distance it was found at: 0 when no other block intervened
// since its previous access, −1 when the block was never seen. It
// runs once per profiled reference.
//
//perf:hot
func (t *stackTree) access(block uint64) int {
	if (t.live+1)*maxLoadDen > len(t.table)*maxLoadNum {
		t.grow()
	}
	if t.next == len(t.occ)*64 {
		t.renumber()
	}
	e := &t.table[t.find(block)]
	p, n := e.slot, t.next
	wn := n >> 6
	d := -1
	if p == 0 {
		e.block = block
		t.add(wn, 1)
		t.live++
	} else {
		if p == n-1 {
			// Already on top: the stack does not change.
			return 0
		}
		// Live slots after p are exactly the distinct blocks accessed
		// since block's previous access.
		d = t.live - t.rank(p)
		// The occupancy bit must drop: renumber ranks slots by occ, so
		// a stale bit would keep the vacated slot alive.
		wp := p >> 6
		t.occ[wp] &^= 1 << uint(p&63)
		if wp != wn {
			t.move(wp, wn)
		}
	}
	e.slot = n
	t.occ[wn] |= 1 << uint(n&63)
	t.next++
	return d
}

// remove forgets block entirely (SHARDS threshold eviction).
func (t *stackTree) remove(block uint64) {
	i := t.find(block)
	if t.table[i].slot == 0 {
		return
	}
	t.kill(t.table[i].slot)
	// Backward-shift deletion: walk the probe run after the hole and
	// pull back every entry whose home does not lie cyclically in
	// (hole, its cell], so each remaining key stays reachable from its
	// home without tombstones.
	mask := len(t.table) - 1
	for j := i; ; {
		j = (j + 1) & mask
		e := t.table[j]
		if e.slot == 0 {
			break
		}
		if (j-t.home(e.block))&mask >= (j-i)&mask {
			t.table[i] = e
			i = j
		}
	}
	t.table[i] = treeEntry{}
}

// blocks returns the number of tracked blocks.
func (t *stackTree) blocks() int { return t.live }

// reset empties the tree, keeping its arrays.
func (t *stackTree) reset() {
	clear(t.table)
	clear(t.occ)
	clear(t.fen)
	t.next, t.live = 1, 0
}

// grow doubles the table and re-inserts every entry.
func (t *stackTree) grow() {
	old := t.table
	t.table = make([]treeEntry, 2*len(old))
	t.shift--
	for _, e := range old {
		if e.slot != 0 {
			t.table[t.find(e.block)] = e
		}
	}
}

// renumber compacts the live slots to 1..live preserving their order,
// doubling the slot bits only when more than half of them are live.
// A block's new slot is its old slot's rank, read off a running count
// of the occupancy words, so one pass over the words and one over the
// table renumber everything in place, without sorting; the occupancy
// bits (now a prefix of ones) and the Fenwick tree over their words
// are then rebuilt in one linear pass each. The rebuild is O(table +
// words) = O(size), amortized O(1) per access over the ≥ size/2
// accesses that consumed the slots.
func (t *stackTree) renumber() {
	words := len(t.occ)
	for 64*words < 2*(t.live+1) {
		words *= 2
	}
	// The Fenwick array is rebuilt below, so it serves as the scratch
	// running count: below[w] = live slots in words under w.
	below := t.fen
	live := 0
	for w, word := range t.occ {
		below[w] = live
		live += bits.OnesCount64(word)
	}
	for i := range t.table {
		if p := t.table[i].slot; p != 0 {
			w := p >> 6
			t.table[i].slot = below[w] + bits.OnesCount64(t.occ[w]<<(63-uint(p&63)))
		}
	}
	if words != len(t.occ) {
		t.occ, t.fen = make([]uint64, words), make([]int, words+1)
	}
	t.live, t.next = live, live+1
	clear(t.occ)
	for p := 1; p <= live; p++ {
		t.occ[p>>6] |= 1 << uint(p&63)
	}
	for w, word := range t.occ {
		t.fen[w+1] = bits.OnesCount64(word)
	}
	for i := 1; i < len(t.fen); i++ {
		if j := i + i&-i; j < len(t.fen) {
			t.fen[j] += t.fen[i]
		}
	}
}

// passIndex is one pass's working memory: the stack tree and, for an
// exact pass, its dense histogram. ProfileRefs and ProfileSampledRefs
// take one from indexPool and hand it back cleared, so a pass
// allocates only the Curve it returns and starts with the capacity an
// earlier pass grew; the streaming profilers keep a private tree.
type passIndex struct {
	tree stackTree
	hist []uint64
}

// indexPool holds cleared passIndexes between passes.
var indexPool sync.Pool

// oversize bounds how much larger than a returning pass's own need
// (cellsFor its live blocks) an index's table may be and still be
// pooled. Every array of an index grows with its table (the slot bits
// stay within a small multiple of the live blocks, the histogram
// within one of the deepest distance), so the table stands for them
// all. Sixteen is four doublings: short passes over the same trace
// length but different working sets share indexes, while one left by
// a pass that tracked more than sixteen times as many blocks is
// dropped, so a single long request cannot make every later short
// pass clear and walk its arrays.
const oversize = 16

// takeIndex returns a cleared index from the pool, or a fresh one.
func takeIndex() *passIndex {
	if ix, ok := indexPool.Get().(*passIndex); ok {
		return ix
	}
	return &passIndex{tree: newStackTree()}
}

// oversized reports whether ix's table is more than oversize times
// what the pass that used it last needed for its live blocks.
func (ix *passIndex) oversized() bool {
	return len(ix.tree.table) > oversize*cellsFor(ix.tree.live)
}

// release hands ix back to the pool, cleared, unless it is oversized.
// The histogram keeps its capacity at length 0: Profiler.Access zeroes
// every bucket it extends into.
func (ix *passIndex) release() {
	if ix.oversized() {
		return
	}
	ix.tree.reset()
	ix.hist = ix.hist[:0]
	indexPool.Put(ix)
}

// profile runs one exact pass over refs on ix. lineSize must be a
// positive power of two.
//
//perf:hot
func (ix *passIndex) profile(refs []trace.Ref, lineSize int) *Curve {
	p := Profiler{lineShift: log2(uint64(lineSize)), lineSize: lineSize, tree: &ix.tree, hist: ix.hist}
	for _, r := range refs {
		p.Access(r.Addr)
	}
	ix.hist = p.hist
	return p.Curve()
}

// Profiler measures exact reuse distances: Mattson's stack algorithm
// over block addresses, one stackTree query per reference, except
// that a reference to the block referenced last (distance 0) skips
// the tree. Feed it references with Access (or a whole trace with
// ProfileRefs) and finish with Curve. A Profiler is not safe for
// concurrent use.
type Profiler struct {
	lineShift uint
	lineSize  int
	tree      *stackTree
	hist      []uint64 // hist[d] = references with stack distance d
	last      uint64   // the block referenced last, once refs > 0
	cold      uint64
	refs      uint64
}

// Access records one reference. Loads and stores are profiled alike:
// under write-allocate both promote their block to the top of the LRU
// stack, which is what makes the curve match the simulator exactly.
// Runs once per reference: the profiler's entire runtime.
//
//perf:hot
func (p *Profiler) Access(addr uint64) {
	block := addr >> p.lineShift
	d := 0
	if p.refs == 0 || block != p.last {
		d = p.tree.access(block)
		p.last = block
	}
	p.refs++
	if d < 0 {
		p.cold++
		return
	}
	for d >= len(p.hist) {
		//lint:ignore hotalloc amortized growth: the histogram doubles O(log maxDepth) times over the whole trace, not per access
		p.hist = append(p.hist, make([]uint64, len(p.hist)+64)...)
	}
	p.hist[d]++
}

// Curve reduces the profile so far into an exact miss-ratio curve.
// The profiler can keep accumulating afterwards; each call snapshots.
// The dense histogram is already in ascending distance order.
func (p *Profiler) Curve() *Curve {
	n := 0
	for _, c := range p.hist {
		if c != 0 {
			n++
		}
	}
	dist, weight := make([]uint64, 0, n), make([]float64, 0, n)
	for d, c := range p.hist {
		if c != 0 {
			dist = append(dist, uint64(d))
			weight = append(weight, float64(c))
		}
	}
	return newCurve(p.lineSize, p.refs, p.tree.blocks(), false, 1, dist, weight, float64(p.cold))
}

// ProfileRefs builds the exact curve of a materialized trace at one
// line size, on a pooled index.
//
//perf:hot
func ProfileRefs(refs []trace.Ref, lineSize int) (*Curve, error) {
	if err := validLineSize(lineSize); err != nil {
		return nil, err
	}
	ix := takeIndex()
	c := ix.profile(refs, lineSize)
	ix.release()
	return c, nil
}
