package mem

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"informing/internal/stats"
)

// refArch is the architectural side of a naive reference cache: refCache
// for true LRU, refPolicyCache for the RRIP family.
type refArch interface {
	access(addr uint64, write bool) (hit bool, writeback uint64, wb bool)
	contains(addr uint64) bool
	invalidate(addr uint64) bool
	flush()
}

// refTaxonomy is a naive model of the miss taxonomy: a Go map for the
// infinite seen filter (value = coherence mark) and an MRU-first slice,
// capped at the cache's line count, for the fully-associative shadow.
// It holds its full state from the start, so it is the dense reference
// the lazily grown Taxonomy is compared against.
type refTaxonomy struct {
	lines   int
	seen    map[uint64]bool
	shadow  []uint64 // MRU first
	classes stats.MissClasses
}

func newRefTaxonomy(lines int) *refTaxonomy {
	return &refTaxonomy{lines: lines, seen: map[uint64]bool{}}
}

func (r *refTaxonomy) inShadow(tag uint64) int {
	for i, s := range r.shadow {
		if s == tag {
			return i
		}
	}
	return -1
}

// touch moves tag to the shadow's MRU position, inserting it (and
// dropping the LRU line when full) if absent.
func (r *refTaxonomy) touch(tag uint64) {
	if i := r.inShadow(tag); i >= 0 {
		r.shadow = append(r.shadow[:i], r.shadow[i+1:]...)
	} else if len(r.shadow) == r.lines {
		r.shadow = r.shadow[:len(r.shadow)-1]
	}
	r.shadow = append([]uint64{tag}, r.shadow...)
}

func (r *refTaxonomy) miss(tag uint64) {
	coh, seen := r.seen[tag]
	switch {
	case !seen:
		r.classes.Compulsory++
	case coh:
		r.classes.Coherence++
	case r.inShadow(tag) >= 0:
		r.classes.Conflict++
	default:
		r.classes.Capacity++
	}
	r.seen[tag] = false
	r.touch(tag)
}

// refTaxCache pairs a reference cache with a reference taxonomy.
type refTaxCache struct {
	arch      refArch
	tax       *refTaxonomy
	lineBytes uint64
}

func newRefTaxCache(cfg CacheConfig) *refTaxCache {
	r := &refTaxCache{lineBytes: uint64(cfg.LineBytes)}
	if cfg.Policy == "" {
		r.arch = newRefCache(cfg)
	} else {
		r.arch = newRefPolicyCache(cfg)
	}
	r.enable(cfg)
	return r
}

func (r *refTaxCache) enable(cfg CacheConfig) {
	r.tax = newRefTaxonomy(cfg.SizeBytes / cfg.LineBytes)
}

func (r *refTaxCache) access(addr uint64, write bool) (bool, uint64, bool) {
	hit, wbAddr, wb := r.arch.access(addr, write)
	if tag := addr / r.lineBytes; hit {
		r.tax.touch(tag)
	} else {
		r.tax.miss(tag)
	}
	return hit, wbAddr, wb
}

func (r *refTaxCache) invalidateCoherence(addr uint64) bool {
	inv := r.arch.invalidate(addr)
	if inv {
		r.tax.seen[addr/r.lineBytes] = true
	}
	return inv
}

func (r *refTaxCache) flush() {
	r.arch.flush()
	r.tax.shadow = r.tax.shadow[:0]
}

// TestLazyCacheMatchesDenseReference replays seeded random streams of
// Access / Contains / Invalidate / InvalidateCoherence / Flush and an
// occasional second EnableTaxonomy through the paged Cache with its
// growing Taxonomy and through the dense naive references, under all
// four policies, and requires every hit, writeback, Contains answer and
// class count to agree after every operation. The footprints exceed the
// caches' capacity, so shadow nodes are recycled and the shadow index
// grows past its starting size and then compacts; the sparse geometry
// leaves most pages unallocated, so Contains and Invalidate run on nil
// pages too.
func TestLazyCacheMatchesDenseReference(t *testing.T) {
	geoms := []struct {
		cfg       CacheConfig
		footprint int  // distinct lines in the address pool
		recycles  bool // the shadow fills and recycles nodes between resets
		grows     bool // the shadow index doubles, and later compacts
	}{
		{CacheConfig{SizeBytes: 512, LineBytes: 32, Assoc: 2}, 64, true, false}, // 8 sets: one short page
		{CacheConfig{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 2}, 1024, true, true},
		{CacheConfig{SizeBytes: 16 << 10, LineBytes: 64, Assoc: 4}, 1024, true, true},
		{CacheConfig{SizeBytes: 64 << 10, LineBytes: 32, Assoc: 1}, 96, false, false}, // 32 pages, mostly nil
	}
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			for gi, g := range geoms {
				cfg := g.cfg
				if policy != PolicyLRU {
					cfg.Policy = policy
				}
				rng := rand.New(rand.NewSource(9100 + int64(gi)))
				c := MustCache(cfg)
				c.EnableTaxonomy()
				ref := newRefTaxCache(cfg)
				span := uint64(64 * cfg.SizeBytes)
				pool := make([]uint64, g.footprint)
				for i := range pool {
					pool[i] = uint64(rng.Int63n(int64(span)))
				}
				var last uint64
				recycled, grown, compacted := false, false, false
				for op := 0; op < 20000; op++ {
					addr := pool[rng.Intn(len(pool))]
					if rng.Intn(4) == 0 {
						addr = last // memo pressure
					}
					last = addr
					where := func() string { return fmt.Sprintf("geom %d op %d addr %#x", gi, op, addr) }
					tax, slots, used := c.tax, len(c.tax.idxKeys), c.tax.idxUsed
					full := len(tax.nodes) == tax.lines
					switch k := rng.Intn(4000); {
					case k < 2800:
						write := rng.Intn(3) == 0
						gh, gwb, gok := c.Access(addr, write)
						wh, wwb, wok := ref.access(addr, write)
						if gh != wh || gwb != wwb || gok != wok {
							t.Fatalf("%s: Access = (%v,%#x,%v), reference (%v,%#x,%v)", where(), gh, gwb, gok, wh, wwb, wok)
						}
					case k < 3400:
						if got, want := c.Contains(addr), ref.arch.contains(addr); got != want {
							t.Fatalf("%s: Contains = %v, reference %v", where(), got, want)
						}
					case k < 3680:
						if got, want := c.Invalidate(addr), ref.arch.invalidate(addr); got != want {
							t.Fatalf("%s: Invalidate = %v, reference %v", where(), got, want)
						}
					case k < 3997:
						if got, want := c.InvalidateCoherence(addr), ref.invalidateCoherence(addr); got != want {
							t.Fatalf("%s: InvalidateCoherence = %v, reference %v", where(), got, want)
						}
					case k < 3999:
						c.Flush()
						ref.flush()
					default:
						c.EnableTaxonomy()
						ref.enable(cfg)
					}
					if got, want := c.Taxonomy(), ref.tax.classes; got != want {
						t.Fatalf("%s: classes %+v, reference %+v", where(), got, want)
					}
					if i := invalidWayWithMeta(c); i >= 0 {
						t.Fatalf("%s: invalid way %d keeps a nonzero policy word", where(), i)
					}
					if cap(c.tax.nodes) > c.tax.lines {
						t.Fatalf("%s: shadow pool capacity %d exceeds the cache's %d lines", where(), cap(c.tax.nodes), c.tax.lines)
					}
					// Coverage: an insertion into a full pool recycles a
					// node; the index shrinking its claimed slots without
					// a flush is a compaction.
					if c.tax == tax && len(tax.idxKeys) == slots && len(tax.nodes) > 0 {
						recycled = recycled || full && tax.idxUsed > used
						compacted = compacted || tax.idxUsed < used
					}
					grown = grown || len(c.tax.idxKeys) > tableMin
				}
				if g.recycles && !recycled || g.grows && (!grown || !compacted) {
					t.Errorf("geom %d: recycled %v, index grown %v, compacted %v; the trace lost its coverage",
						gi, recycled, grown, compacted)
				}
			}
		})
	}
}

// invalidWayWithMeta checks the Policy contract that an invalid way's
// metadata word is zero (after construction and after any invalidation),
// returning the offending way's index in page order, or -1.
func invalidWayWithMeta(c *Cache) int {
	if c.metaPages == nil {
		return -1
	}
	n := 0
	for p, pg := range c.pages {
		for i := range pg {
			if !pg[i].valid && c.metaPages[p][i] != 0 {
				return n + i
			}
		}
		n += len(pg)
	}
	return -1
}

// TestTaxonomyStaleWayRef pins the two ways a way's shadow-node ref can
// go stale, and requires both to fall back to the shadow index rather
// than trust the ref: after a re-enable the ref points past the new,
// empty pool; once the pool regrows, the same ref names a node that now
// holds another tag.
func TestTaxonomyStaleWayRef(t *testing.T) {
	cfg := CacheConfig{SizeBytes: 1024, LineBytes: 32, Assoc: 2} // 32 lines, 16 sets
	c := MustCache(cfg)
	c.EnableTaxonomy()
	ref := newRefTaxCache(cfg)
	access := func(addr uint64) {
		t.Helper()
		gh, _, _ := c.Access(addr, false)
		wh, _, _ := ref.access(addr, false)
		if gh != wh {
			t.Fatalf("Access(%#x) hit %v, reference %v", addr, gh, wh)
		}
		if got, want := c.Taxonomy(), ref.tax.classes; got != want {
			t.Fatalf("after Access(%#x): classes %+v, reference %+v", addr, got, want)
		}
	}
	wayOf := func(addr uint64) *way {
		set, _ := c.lookup(addr >> c.lineShift)
		for i := range set {
			if set[i].valid && set[i].tag == addr>>c.lineShift {
				return &set[i]
			}
		}
		t.Fatalf("line %#x not resident", addr)
		return nil
	}
	// Fill every line; the last one filled holds ref 32.
	for a := uint64(0); a < 32*32; a += 32 {
		access(a)
	}
	last := uint64(31 * 32)
	if r := wayOf(last).ref; r != 32 {
		t.Fatalf("last-filled way ref = %d, want 32", r)
	}

	c.EnableTaxonomy()
	ref.enable(cfg)
	// Past the pool: the new classifier has no nodes, yet the way still
	// carries ref 32. The hit must insert the line afresh.
	if r := wayOf(last).ref; int(r) <= len(c.tax.nodes) {
		t.Fatalf("way ref %d not past the re-enabled pool of %d", r, len(c.tax.nodes))
	}
	access(last)
	if r := wayOf(last).ref; r != 1 {
		t.Fatalf("re-aimed way ref = %d, want 1", r)
	}

	// Names another tag: line 0 still carries its pre-enable ref 1, and
	// node 0 now holds line 31. The hit must insert line 0 as node 1.
	if w := wayOf(0); w.ref != 1 || c.tax.nodes[0].tag == w.tag {
		t.Fatalf("setup: line 0 ref %d, node 0 holds tag %d", w.ref, c.tax.nodes[0].tag)
	}
	access(0)
	if r := wayOf(0).ref; r != 2 || c.tax.nodes[1].tag != 0 {
		t.Fatalf("re-aimed way ref = %d, want 2 naming line 0", r)
	}
	for a := uint64(0); a < 32*32; a += 32 {
		access(a)
	}

	// Flush clears every way, refs included.
	c.Flush()
	ref.flush()
	for _, pg := range c.pages {
		for i := range pg {
			if pg[i].ref != 0 {
				t.Fatalf("way %d kept ref %d across a flush", i, pg[i].ref)
			}
		}
	}
	for a := uint64(0); a < 40*32; a += 32 {
		access(a)
	}
}

// TestLookupsDoNotAllocate: a nil page reads as all-invalid, so
// Contains, Invalidate and InvalidateCoherence on never-filled sets
// allocate nothing and leave every page unallocated.
func TestLookupsDoNotAllocate(t *testing.T) {
	for _, policy := range PolicyNames() {
		c := MustCache(CacheConfig{SizeBytes: 2 << 20, LineBytes: 32, Assoc: 2, Policy: policy})
		c.EnableTaxonomy()
		allocs := testing.AllocsPerRun(10, func() {
			for a := uint64(0); a < 1<<20; a += 4096 {
				c.Contains(a)
				c.Invalidate(a)
				c.InvalidateCoherence(a)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: lookups allocated %.0f times per run", policy, allocs)
		}
		for i, pg := range c.pages {
			if pg != nil {
				t.Fatalf("%s: page %d allocated by a lookup", policy, i)
			}
		}
	}
}

// TestWaySize: the taxonomy's node ref lives in the way's padding; a way
// that grows past 24 bytes grows every allocated page by a third.
func TestWaySize(t *testing.T) {
	if got := unsafe.Sizeof(way{}); got != 24 {
		t.Fatalf("sizeof(way) = %d, want 24", got)
	}
}
