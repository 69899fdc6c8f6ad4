// Package mem implements the simulated memory hierarchy: set-associative
// LRU caches, a two-level hierarchy with architectural probe semantics,
// and a timing model with lockup-free MSHRs, cache banks, fill occupancy
// and a main-memory bandwidth limiter (parameters from Table 1 of the
// paper). It also implements the paper's §3.3 mechanism: MSHR lifetime
// extension so that fills performed by squashed speculative informing
// loads can be invalidated from the primary cache.
package mem

import "fmt"

// CacheConfig describes one cache. Policy names the replacement policy
// ("" or "lru" for the built-in true-LRU path; "srrip", "brrip", "trrip"
// for the Policy-seam implementations — see NewPolicy). The config stays
// a comparable value type so hierarchy configs remain usable as map keys.
type CacheConfig struct {
	SizeBytes int
	LineBytes int
	Assoc     int
	Policy    string
}

// Sets returns the number of sets implied by the configuration.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// Validate checks the configuration.
func (c CacheConfig) Validate() error { return c.validate() }

func (c CacheConfig) validate() error {
	switch {
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("mem: line size %d not a power of two", c.LineBytes)
	case c.Assoc <= 0:
		return fmt.Errorf("mem: associativity %d invalid", c.Assoc)
	case c.SizeBytes%(c.LineBytes*c.Assoc) != 0:
		return fmt.Errorf("mem: size %d not divisible by line*assoc", c.SizeBytes)
	case c.Sets()&(c.Sets()-1) != 0:
		return fmt.Errorf("mem: set count %d not a power of two", c.Sets())
	}
	return ValidPolicy(c.Policy)
}

// Cache is a set-associative cache with true-LRU replacement. It tracks
// tag state only (the simulator keeps data in isa.DataMem); a dirty bit is
// maintained so write-back traffic can be accounted.
//
// Way state is allocated as lines are touched, not at construction: the
// ways live in pages of pageSets sets, and a page is allocated by the
// first fill into one of its sets. A nil page reads as all-invalid, so
// Contains and Invalidate never allocate. A cache therefore holds at most
// sets/64 pages (rounded up), and a short run on a 2 MB L2 pays only for
// the pages its lines land in.
//
// A way memo (DESIGN.md §10) remembers the most recently hit or filled
// (line, way) so the dominant same-line re-reference takes a single-compare
// fast path instead of the set scan. Invariant: whenever memo is non-nil,
// *memo is valid and holds tag memoLine. Every mutation that could break
// the invariant — Invalidate, Flush, victim replacement — clears or
// retargets the memo, so a memoized hit can never survive an invalidation
// and Accesses/Misses/LRU state are bit-identical to the unmemoized cache.
type Cache struct {
	cfg       CacheConfig
	lineShift uint
	setMask   uint64
	pages     [][]way // pageSets sets per page, set-major; nil = never filled

	stamp uint64 // LRU clock

	memoLine uint64  // line address (addr >> lineShift) of the memoized way
	memo     *way    // the memoized way; nil when no memo is held
	memoMeta *uint64 // the memoized way's policy word (nil under LRU)

	// pol, when non-nil, is the replacement policy the cache was built
	// with; metaPages holds its per-way metadata words, page for page
	// parallel to pages. nil pol selects the built-in true-LRU path,
	// which uses way.used/stamp and never consults the seam.
	pol       Policy
	metaPages [][]uint64

	// tax, when non-nil, classifies every miss online (see Taxonomy).
	tax *Taxonomy

	// Statistics.
	Accesses uint64
	Misses   uint64
}

// pageShift sets the page granularity of the lazily allocated way state:
// one page covers pageSets consecutive sets.
const (
	pageShift = 6
	pageSets  = 1 << pageShift
)

// way is one cache way. ref belongs to the taxonomy: the shadow node
// last associated with this way, plus one (0 = none). It sits in what
// would otherwise be padding, so a way stays 24 bytes.
type way struct {
	tag   uint64
	valid bool
	dirty bool
	ref   int32
	used  uint64
}

// NewCache builds a cache, rejecting invalid configurations with an
// error (the library panic-to-error policy; see DESIGN.md "Robustness
// model").
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	pol, err := NewPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	npages := (cfg.Sets() + pageSets - 1) / pageSets
	c := &Cache{
		cfg:       cfg,
		lineShift: shift,
		setMask:   uint64(cfg.Sets() - 1),
		pages:     make([][]way, npages),
		pol:       pol,
	}
	if pol != nil {
		c.metaPages = make([][]uint64, npages)
	}
	return c, nil
}

// MustCache is NewCache that panics on error; for tests and static
// literal configurations only (documented Must* helper).
func MustCache(cfg CacheConfig) *Cache {
	c, err := NewCache(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Line returns the line address (addr with the offset bits cleared).
func (c *Cache) Line(addr uint64) uint64 { return addr >> c.lineShift << c.lineShift }

// lookup returns tag's set without allocating: nil when the set's page
// was never filled, which means every way in it is invalid. off is the
// set's first way within its page (for the parallel metadata page).
func (c *Cache) lookup(tag uint64) (set []way, off int) {
	s := tag & c.setMask
	pg := c.pages[s>>pageShift]
	if pg == nil {
		return nil, 0
	}
	off = int(s&(pageSets-1)) * c.cfg.Assoc
	return pg[off : off+c.cfg.Assoc], off
}

// accessNewPage serves an access whose set lies in a never-filled page:
// it allocates the page (and its policy metadata page), then retries the
// access, which misses into the fresh set. Entering it by a tail call
// keeps the allocation out of the common access paths, which then hold
// no values across a call and spill none.
func (c *Cache) accessNewPage(tag uint64, write bool) (hit bool, writeback uint64, wb bool) {
	n := min(pageSets, int(c.setMask)+1) * c.cfg.Assoc
	page := tag & c.setMask >> pageShift
	c.pages[page] = make([]way, n)
	if c.pol != nil {
		c.metaPages[page] = make([]uint64, n)
	}
	return c.accessSlow(tag, write)
}

// Access looks up addr, updating LRU state and allocating the line on a
// miss (write-allocate). It reports whether the access hit and, when an
// eviction of a dirty line occurred, the evicted line address.
func (c *Cache) Access(addr uint64, write bool) (hit bool, writeback uint64, wb bool) {
	tag := addr >> c.lineShift
	if w := c.memo; c.pol == nil && w != nil && c.memoLine == tag {
		// Way-memo fast path: same line as the previous hit/fill.
		c.Accesses++
		c.stamp++
		w.used = c.stamp
		if write {
			w.dirty = true
		}
		if c.tax != nil {
			c.tax.hit(tag, w)
		}
		return true, 0, false
	}
	return c.accessSlow(tag, write)
}

// accessSlow is the full set scan; a single pass finds the hit way and, in
// the same loop, the replacement victim (first invalid way, else true LRU
// with lowest-index tie break — the same choice the historical two-scan
// code made). Caches built with a non-LRU policy divert to accessPolicy.
func (c *Cache) accessSlow(tag uint64, write bool) (hit bool, writeback uint64, wb bool) {
	if c.pol != nil {
		return c.accessPolicy(tag, write)
	}
	set, _ := c.lookup(tag)
	if set == nil {
		return c.accessNewPage(tag, write)
	}
	c.Accesses++
	c.stamp++
	victim, invalidFound := 0, false
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == tag {
			w.used = c.stamp
			if write {
				w.dirty = true
			}
			c.memoLine, c.memo = tag, w
			if c.tax != nil {
				c.tax.hit(tag, w)
			}
			return true, 0, false
		}
		if !invalidFound {
			if !w.valid {
				victim, invalidFound = i, true
			} else if w.used < set[victim].used {
				victim = i
			}
		}
	}
	c.Misses++
	w := &set[victim]
	if w.valid && w.dirty {
		writeback = w.tag << c.lineShift
		wb = true
	}
	*w = way{tag: tag, valid: true, dirty: write, used: c.stamp}
	if c.tax != nil {
		// After the fill, so the classifier's node ref lands in the
		// freshly written way.
		c.tax.miss(tag, w)
	}
	// Retarget the memo at the freshly filled line: the replacement may
	// just have evicted the memoized line from this very way, and the new
	// line is the MRU re-reference candidate either way.
	c.memoLine, c.memo = tag, w
	return false, writeback, wb
}

// accessPolicy is the Policy-seam access path: hit detection and the
// first-invalid fill rule stay in the cache; replacement ordering (Touch/
// Fill/Victim/Evict) belongs to the policy. The way memo is maintained
// with the same invariant as the LRU path — the memoized (line, way)
// always names a valid resident line — so Contains' memo consult stays
// exact under every policy.
func (c *Cache) accessPolicy(tag uint64, write bool) (hit bool, writeback uint64, wb bool) {
	set, off := c.lookup(tag)
	if set == nil {
		return c.accessNewPage(tag, write)
	}
	c.Accesses++
	meta := c.metaPages[tag&c.setMask>>pageShift][off : off+c.cfg.Assoc]
	victim, invalidFound := -1, false
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == tag {
			c.pol.Touch(meta, i)
			if write {
				w.dirty = true
			}
			c.memoLine, c.memo, c.memoMeta = tag, w, &meta[i]
			if c.tax != nil {
				c.tax.hit(tag, w)
			}
			return true, 0, false
		}
		if !invalidFound && !w.valid {
			victim, invalidFound = i, true
		}
	}
	c.Misses++
	if !invalidFound {
		victim = c.pol.Victim(meta)
		c.pol.Evict(set[victim].tag, meta[victim])
	}
	w := &set[victim]
	if w.valid && w.dirty {
		writeback = w.tag << c.lineShift
		wb = true
	}
	*w = way{tag: tag, valid: true, dirty: write}
	if c.tax != nil {
		// After victim selection and the fill, so the classifier's node
		// ref lands in the filled way; the classifier shares no state
		// with the policy, so the move is observation-order neutral.
		c.tax.miss(tag, w)
	}
	c.pol.Fill(meta, victim, tag)
	c.memoLine, c.memo, c.memoMeta = tag, w, &meta[victim]
	return false, writeback, wb
}

// Contains reports whether addr's line is present, without updating LRU.
// It consults the way memo first; the memo invariant (see Cache) makes
// that answer exact.
func (c *Cache) Contains(addr uint64) bool {
	tag := addr >> c.lineShift
	if c.memo != nil && c.memoLine == tag {
		return true
	}
	set, _ := c.lookup(tag)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Invalidate removes addr's line if present and reports whether it was.
// The way memo is cleared when it named the invalidated line, so a
// memoized hit can never survive an invalidation.
func (c *Cache) Invalidate(addr uint64) bool {
	tag := addr >> c.lineShift
	if c.memo != nil && c.memoLine == tag {
		*c.memo = way{}
		if c.memoMeta != nil {
			*c.memoMeta = 0
		}
		c.memo, c.memoMeta = nil, nil
		return true
	}
	set, off := c.lookup(tag)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i] = way{}
			if c.pol != nil {
				c.metaPages[tag&c.setMask>>pageShift][off+i] = 0
			}
			return true
		}
	}
	return false
}

// Flush invalidates the entire cache (context switch modelling). Pages
// already allocated are cleared in place, not released. The taxonomy's
// fully-associative shadow is flushed alongside, so post-flush
// re-references classify as capacity misses rather than inheriting
// pre-switch recency.
func (c *Cache) Flush() {
	c.memo, c.memoMeta = nil, nil
	for _, pg := range c.pages {
		clear(pg)
	}
	for _, pg := range c.metaPages {
		clear(pg)
	}
	if c.tax != nil {
		c.tax.flush()
	}
}

// MissRate returns misses/accesses (0 when idle).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}
