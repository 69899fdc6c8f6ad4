package mem

import "informing/internal/stats"

// Taxonomy is the online miss classifier (DESIGN.md §17): attached to a
// Cache it observes every access and classifies each miss, at fill time,
// as exactly one of compulsory / coherence / conflict / capacity — so the
// four classes always sum to the cache's Misses counter.
//
// Two side models drive the classification:
//
//   - an infinite-tag filter (seen): every line tag the cache has ever
//     referenced. A miss on a never-seen tag is compulsory. The filter
//     also carries the coherence mark: a tag whose resident line was
//     removed by InvalidateCoherence classifies its next miss as a
//     coherence miss.
//   - a fully-associative shadow of the same capacity (line count) as the
//     cache, with true-LRU replacement. A non-compulsory, non-coherence
//     miss that hits in the shadow would have hit in a fully-associative
//     cache — a conflict miss; one that misses even there is a capacity
//     miss.
//
// The shadow is a pure recency model: architectural invalidations do not
// erase recency (a speculatively squashed line re-fetched soon after
// still classifies by how recently it was referenced), and a Flush
// (context switch) empties the shadow alongside the cache, so post-flush
// re-references classify as capacity, not conflict.
//
// The classifier is observation-only — it never influences hit/miss
// outcomes, replacement state or the way memo — so enabling it leaves
// the cache's architectural behaviour bit-identical.
//
// It is also on the simulator's hottest path (the hierarchy enables it
// on both data levels of every run), so it avoids Go maps entirely:
// both side models are open-addressed tables keyed by tag+1 (0 = empty
// slot), and the dominant operation — refreshing shadow recency on a
// cache hit — usually skips even those via way.ref, a per-cache-way memo
// of the shadow node last associated with that way. A ref is validated
// against the pool's length and the node's current tag before use, so
// recycling a shadow node, a flush or a re-enable merely makes the memo
// miss, never lie.
//
// Like the cache's way pages, all of this state grows with the lines a
// run touches rather than being sized by the cache's capacity up front:
// the node pool grows by append to at most one node per cache line and
// then recycles its LRU node, and both tables start at 256 slots and
// double (the shadow index first compacts its dead slots — left behind
// when their node is recycled to a new tag — by rehashing the live LRU
// list, and doubles only when live entries fill half of it). Growth is
// amortized, keeping the steady-state hot path allocation-free within
// the allocation gate's budget.
type Taxonomy struct {
	Classes stats.MissClasses

	// Infinite-tag filter: open-addressed, linear probing, keys are
	// tag+1 (0 = empty), values carry cohMark. Entries are never
	// deleted; the table doubles at 3/4 load.
	seenKeys []uint64
	seenVals []uint8
	seenLive int

	// Shadow index: tag -> node, open-addressed, keys are tag+1. A slot
	// whose node no longer holds its key's tag is dead (the node was
	// recycled); dead slots are skipped on lookup, reused by a same-tag
	// reinsert, and swept out by a compacting rehash of the live LRU
	// list once claimed slots reach 3/4 of the table.
	idxKeys  []uint64
	idxNodes []int32
	idxUsed  int

	// Fully-associative shadow: intrusive LRU list over the node pool.
	// Every node in nodes is on the list; the pool grows by append until
	// it holds lines nodes, after which a miss recycles the LRU node.
	nodes      []shadowNode
	lines      int
	head, tail int32 // MRU, LRU (-1 when empty)
	mru        uint64
	mruOK      bool
}

const cohMark = 1 << 0 // seen-filter bit: evicted by a coherence invalidation

// tagHashC is the multiplicative-hash constant (2^64 / golden ratio);
// tables index with the product's high bits, so power-of-two table sizes
// stay well mixed.
const tagHashC = 0x9E3779B97F4A7C15

type shadowNode struct {
	tag        uint64
	prev, next int32
}

// tableMin is the starting slot count of the seen filter and the shadow
// index; both double from there as the run touches more lines.
const tableMin = 256

// newTaxonomy builds a classifier whose shadow holds at most lines lines
// (the attached cache's capacity in lines).
func newTaxonomy(lines int) *Taxonomy {
	return &Taxonomy{
		seenKeys: make([]uint64, tableMin),
		seenVals: make([]uint8, tableMin),
		idxKeys:  make([]uint64, tableMin),
		idxNodes: make([]int32, tableMin),
		lines:    lines,
		head:     -1,
		tail:     -1,
	}
}

// hit records a cache hit on way w: the shadow's recency is refreshed.
// The MRU memo makes the dominant same-line re-reference a single
// compare; w.ref makes most other hits a tag check plus a list splice,
// no table probe. The unsigned compare rejects both "no ref" (0 - 1)
// and a ref past the pool, which a flush or re-enable leaves behind.
func (t *Taxonomy) hit(tag uint64, w *way) {
	if t.mruOK && t.mru == tag {
		return
	}
	if r := w.ref - 1; uint(r) < uint(len(t.nodes)) && t.nodes[r].tag == tag {
		t.mru, t.mruOK = tag, true
		if t.head != r {
			t.moveToHead(r)
		}
		return
	}
	n, inShadow := t.idxGet(tag)
	t.touch(tag, n, inShadow, w)
}

// miss classifies and records a cache miss on tag filling way w, then
// refreshes the shadow with the reference. Classification priority:
// compulsory (never seen) > coherence (marked by InvalidateCoherence) >
// conflict (shadow holds the line) > capacity.
func (t *Taxonomy) miss(tag uint64, w *way) {
	n, inShadow := t.idxGet(tag)
	if 4*(t.seenLive+1) > 3*len(t.seenKeys) {
		t.growSeen()
	}
	i := t.seenSlot(tag)
	switch {
	case t.seenKeys[i] == 0:
		t.Classes.Compulsory++
		t.seenKeys[i] = tag + 1
		t.seenVals[i] = 0
		t.seenLive++
	case t.seenVals[i]&cohMark != 0:
		t.Classes.Coherence++
		t.seenVals[i] = 0
	case inShadow:
		t.Classes.Conflict++
	default:
		t.Classes.Capacity++
	}
	t.touch(tag, n, inShadow, w)
}

// markCoherence flags tag so its next miss classifies as a coherence
// miss. Called only for tags whose line a coherence action just removed.
func (t *Taxonomy) markCoherence(tag uint64) {
	if 4*(t.seenLive+1) > 3*len(t.seenKeys) {
		t.growSeen()
	}
	i := t.seenSlot(tag)
	if t.seenKeys[i] == 0 {
		t.seenKeys[i] = tag + 1
		t.seenVals[i] = cohMark
		t.seenLive++
		return
	}
	t.seenVals[i] |= cohMark
}

// seenSlot probes the seen filter for tag, returning the index of its
// slot (occupied by tag) or of the empty slot where it would go.
func (t *Taxonomy) seenSlot(tag uint64) int {
	mask := uint64(len(t.seenKeys) - 1)
	k := tag + 1
	for i := (tag * tagHashC) >> 33 & mask; ; i = (i + 1) & mask {
		if sk := t.seenKeys[i]; sk == k || sk == 0 {
			return int(i)
		}
	}
}

func (t *Taxonomy) growSeen() {
	oldK, oldV := t.seenKeys, t.seenVals
	t.seenKeys = make([]uint64, 2*len(oldK))
	t.seenVals = make([]uint8, 2*len(oldV))
	for i, k := range oldK {
		if k != 0 {
			j := t.seenSlot(k - 1)
			t.seenKeys[j] = k
			t.seenVals[j] = oldV[i]
		}
	}
}

// idxGet looks tag up in the shadow index; a dead slot (node recycled to
// another tag since the slot was written) reads as absent.
func (t *Taxonomy) idxGet(tag uint64) (int32, bool) {
	mask := uint64(len(t.idxKeys) - 1)
	k := tag + 1
	for i := (tag * tagHashC) >> 33 & mask; ; i = (i + 1) & mask {
		switch sk := t.idxKeys[i]; sk {
		case k:
			if n := t.idxNodes[i]; t.nodes[n].tag == tag {
				return n, true
			}
			return -1, false
		case 0:
			return -1, false
		}
	}
}

// idxSet points tag's index slot at node n, reusing tag's dead slot if
// one exists. When claimed slots reach 3/4 it rehashes the live LRU list
// into a table of the same size, or of double the size once the pool
// (an upper bound on live entries) exceeds half of it. Either way the
// rehash leaves at most 1/2 (same size) or 3/8 (doubled) of the table
// claimed, so it is amortized O(1) per claim, and the table stays below
// four slots per cache line.
func (t *Taxonomy) idxSet(tag uint64, n int32) {
	if 4*(t.idxUsed+1) > 3*len(t.idxKeys) {
		if size := len(t.idxKeys); 2*len(t.nodes) > size {
			t.idxKeys = make([]uint64, 2*size)
			t.idxNodes = make([]int32, 2*size)
		} else {
			clear(t.idxKeys)
		}
		t.idxUsed = 0
		for m := t.head; m >= 0; m = t.nodes[m].next {
			t.idxSet(t.nodes[m].tag, m)
		}
	}
	mask := uint64(len(t.idxKeys) - 1)
	k := tag + 1
	for i := (tag * tagHashC) >> 33 & mask; ; i = (i + 1) & mask {
		switch sk := t.idxKeys[i]; sk {
		case k:
			t.idxNodes[i] = n
			return
		case 0:
			t.idxKeys[i] = k
			t.idxNodes[i] = n
			t.idxUsed++
			return
		}
	}
}

// touch moves tag to the shadow's MRU position, inserting it when
// absent, and re-aims way w's memo. n/inShadow carry a prior idxGet's
// answer.
func (t *Taxonomy) touch(tag uint64, n int32, inShadow bool, w *way) {
	t.mru, t.mruOK = tag, true
	if inShadow {
		if t.head != n {
			t.moveToHead(n)
		}
		w.ref = n + 1
		return
	}
	if len(t.nodes) < t.lines {
		n = int32(len(t.nodes))
		t.growNodes()
		t.nodes = append(t.nodes, shadowNode{tag: tag})
	} else {
		// Shadow full: recycle the LRU node. Its index slot dies in
		// place (idxGet's tag check) — no deletion needed.
		n = t.tail
		t.unlink(n)
		t.nodes[n].tag = tag
	}
	t.idxSet(tag, n)
	t.pushHead(n)
	w.ref = n + 1
}

// growNodes makes room for one more node, doubling the pool's capacity
// but never past lines, so the pool holds at most one node per line.
func (t *Taxonomy) growNodes() {
	if len(t.nodes) < cap(t.nodes) {
		return
	}
	grown := make([]shadowNode, len(t.nodes), min(max(2*cap(t.nodes), 16), t.lines))
	copy(grown, t.nodes)
	t.nodes = grown
}

// moveToHead splices an in-list, non-head node to the MRU position —
// the recency refresh every classified hit pays, so it exploits what
// the caller established: n has a live predecessor and the list a head.
func (t *Taxonomy) moveToHead(n int32) {
	nd := &t.nodes[n]
	prev, next := nd.prev, nd.next
	t.nodes[prev].next = next
	if next >= 0 {
		t.nodes[next].prev = prev
	} else {
		t.tail = prev
	}
	nd.prev, nd.next = -1, t.head
	t.nodes[t.head].prev = n
	t.head = n
}

func (t *Taxonomy) unlink(n int32) {
	nd := &t.nodes[n]
	if nd.prev >= 0 {
		t.nodes[nd.prev].next = nd.next
	} else {
		t.head = nd.next
	}
	if nd.next >= 0 {
		t.nodes[nd.next].prev = nd.prev
	} else {
		t.tail = nd.prev
	}
}

func (t *Taxonomy) pushHead(n int32) {
	nd := &t.nodes[n]
	nd.prev, nd.next = -1, t.head
	if t.head >= 0 {
		t.nodes[t.head].prev = n
	} else {
		t.tail = n
	}
	t.head = n
}

// flush empties the shadow (mirroring a cache Flush); the seen filter —
// deliberately infinite — survives, so post-flush misses are capacity,
// never compulsory. The pool keeps its capacity; Cache.Flush clears
// every way alongside, so no way ref outlives the flush.
func (t *Taxonomy) flush() {
	t.mruOK = false
	t.head, t.tail = -1, -1
	clear(t.idxKeys)
	t.idxUsed = 0
	t.nodes = t.nodes[:0]
}

// EnableTaxonomy attaches a fresh miss classifier to the cache (idempotent
// in effect: a second call resets the classifier). The hierarchy enables
// it on both data levels; bare caches (e.g. the instruction cache) stay
// unclassified and pay nothing.
func (c *Cache) EnableTaxonomy() {
	c.tax = newTaxonomy(c.cfg.SizeBytes / c.cfg.LineBytes)
}

// Taxonomy returns the per-class miss breakdown (zero when the classifier
// is not enabled).
func (c *Cache) Taxonomy() stats.MissClasses {
	if c.tax == nil {
		return stats.MissClasses{}
	}
	return c.tax.Classes
}

// InvalidateCoherence removes addr's line like Invalidate, additionally
// marking the line so the taxonomy classifies its next miss as a
// coherence miss. Use it for protocol-driven invalidations
// (internal/multi downgrades, cross-thread stores in trace replay);
// plain Invalidate remains the right call for the §3.3 speculative
// squash path.
func (c *Cache) InvalidateCoherence(addr uint64) bool {
	inv := c.Invalidate(addr)
	if inv && c.tax != nil {
		c.tax.markCoherence(addr >> c.lineShift)
	}
	return inv
}
