// Package cache implements a set-associative CPU cache simulator.
//
// It supports the design points the paper's model covers: write-back
// caches with either write-allocate or write-around (no-allocate) write
// miss handling (§3.1 of Chen & Somani, ISCA '94), LRU/FIFO/random
// replacement, and arbitrary power-of-two geometry. The simulator counts
// the quantities the analytic model is parameterized by: the bytes read
// on misses (R), the write-around miss count (W), and the flush ratio α
// (bytes of dirty lines copied back per byte fetched).
package cache

import "fmt"

// WriteMissPolicy selects how write misses are handled (§3.1).
type WriteMissPolicy int

const (
	// WriteAllocate fetches the missing line before performing the
	// write; write misses then count toward R and W is zero.
	WriteAllocate WriteMissPolicy = iota
	// WriteAround sends the write directly to memory without allocating
	// a line; write misses count toward W, not R.
	WriteAround
)

func (p WriteMissPolicy) String() string {
	switch p {
	case WriteAllocate:
		return "write-allocate"
	case WriteAround:
		return "write-around"
	default:
		return fmt.Sprintf("WriteMissPolicy(%d)", int(p))
	}
}

// WritePolicy selects how write hits reach memory.
type WritePolicy int

const (
	// WriteBack marks the line dirty and copies it back on eviction
	// (the paper's on-chip data cache, §3.1 assumption 1).
	WriteBack WritePolicy = iota
	// WriteThrough sends every store to memory immediately; lines are
	// never dirty and evictions never flush. Goodman's classic
	// traffic comparison ([1] in the paper) contrasts the two.
	WriteThrough
)

func (p WritePolicy) String() string {
	switch p {
	case WriteBack:
		return "write-back"
	case WriteThrough:
		return "write-through"
	default:
		return fmt.Sprintf("WritePolicy(%d)", int(p))
	}
}

// Replacement selects the victim-choice policy within a set.
type Replacement int

const (
	LRU Replacement = iota
	FIFO
	Random
)

func (r Replacement) String() string {
	switch r {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Replacement(%d)", int(r))
	}
}

// Config describes a cache geometry and its policies.
type Config struct {
	Size        int             // total capacity in bytes (power of two)
	LineSize    int             // line size in bytes (power of two)
	Assoc       int             // ways per set; 0 means fully associative
	Write       WritePolicy     // write-back (default) or write-through
	WriteMiss   WriteMissPolicy // write-allocate or write-around
	Replacement Replacement     // LRU, FIFO or Random
	Seed        uint64          // seed for Random replacement

	// Prefetch enables next-line prefetch-on-miss: every demand fill
	// also fetches the sequentially next line if absent. The paper
	// (§3.3, citing its refs [8][9]) folds prefetching into the model
	// by shrinking R to the misses whose penalty is not hidden; the
	// simulator measures exactly that shrinkage (and the traffic cost).
	Prefetch bool
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.Size <= 0 || c.Size&(c.Size-1) != 0:
		return fmt.Errorf("cache: size %d is not a positive power of two", c.Size)
	case c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache: line size %d is not a positive power of two", c.LineSize)
	case c.LineSize > c.Size:
		return fmt.Errorf("cache: line size %d exceeds cache size %d", c.LineSize, c.Size)
	case c.Assoc < 0:
		return fmt.Errorf("cache: negative associativity %d", c.Assoc)
	}
	lines := c.Size / c.LineSize
	assoc := c.Assoc
	if assoc == 0 {
		assoc = lines
	}
	if assoc > lines {
		return fmt.Errorf("cache: associativity %d exceeds %d lines", assoc, lines)
	}
	if lines%assoc != 0 {
		return fmt.Errorf("cache: %d lines not divisible by associativity %d", lines, assoc)
	}
	sets := lines / assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int {
	lines := c.Size / c.LineSize
	assoc := c.Assoc
	if assoc == 0 {
		assoc = lines
	}
	return lines / assoc
}

// Outcome describes what a single access did. Fill and Writeback carry
// the information the memory-timing and stall models need.
type Outcome struct {
	Hit       bool   // the reference hit in the cache
	Fill      bool   // a line fill from memory was started
	FillLine  uint64 // line index fetched (valid when Fill)
	Writeback bool   // a dirty victim line was copied back (flushed)
	Bypassed  bool   // a write-around store went straight to memory
	Through   bool   // a write-through store also went to memory

	Evicted      bool   // a valid line was displaced by the fill
	EvictedLine  uint64 // line index of the displaced line (valid when Evicted)
	EvictedDirty bool   // whether the displaced line was dirty
}

// Stats accumulates event counts over a run. All byte quantities follow
// the paper's Table 1 definitions.
type Stats struct {
	Reads      uint64 // load references
	Writes     uint64 // store references
	ReadHits   uint64
	WriteHits  uint64
	ReadMiss   uint64
	WriteMiss  uint64
	Fills      uint64 // lines fetched from memory on demand misses
	Writebacks uint64 // dirty lines copied back
	Bypasses   uint64 // write-around stores sent to memory
	Throughs   uint64 // write-through stores sent to memory

	PrefetchFills uint64 // lines fetched speculatively by next-line prefetch
	PrefetchHits  uint64 // demand accesses that hit a prefetched, not-yet-used line
}

// Traffic returns the processor-memory bus traffic in bytes for the
// run: line fills and copy-backs move whole lines; write-around and
// write-through stores move one bus transfer each. The paper's §2
// warns that optimizing this number alone "may not produce a
// cost-effective system" — the traffic experiment (E21) quantifies
// the divergence from the delay optimum.
func (s Stats) Traffic(lineSize, busWidth int) uint64 {
	return (s.Fills+s.PrefetchFills+s.Writebacks)*uint64(lineSize) +
		(s.Bypasses+s.Throughs)*uint64(busWidth)
}

// Accesses returns the total number of references.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Hits returns the total number of hits.
func (s Stats) Hits() uint64 { return s.ReadHits + s.WriteHits }

// Misses returns Λm, the number of load/store instructions that miss
// (Eq. (1) of the paper: R/L + W for write-around; R/L for
// write-allocate, where write misses read a line and are part of R).
func (s Stats) Misses() uint64 { return s.ReadMiss + s.WriteMiss }

// HitRatio returns hits over accesses, or 0 for an empty run.
func (s Stats) HitRatio() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(s.Accesses())
}

// MissRatio returns 1 - HitRatio for a non-empty run, else 0.
func (s Stats) MissRatio() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return 1 - s.HitRatio()
}

// FlushRatio returns α, the ratio of dirty-line bytes copied back to
// line bytes fetched (both in units of lines, so line size cancels).
// The paper assumes α = 0.5 in its analytic studies; the simulator
// measures it.
func (s Stats) FlushRatio() float64 {
	if s.Fills == 0 {
		return 0
	}
	return float64(s.Writebacks) / float64(s.Fills)
}

// line is one cache line's bookkeeping.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	// prefetched marks a speculatively fetched line that no demand
	// access has used yet.
	prefetched bool
	// stamp orders lines for LRU (last-use time) or FIFO (fill time).
	stamp uint64
}

// Cache is a set-associative cache simulator. It is not safe for
// concurrent use. Construct with New.
type Cache struct {
	cfg    Config
	sets   [][]line
	setLo  uint64 // log2(sets)
	lineLo uint64 // log2(lineSize)
	clock  uint64
	rng    uint64 // xorshift state for Random replacement
	stats  Stats
}

// New constructs a cache from cfg, returning an error if the
// configuration is invalid.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	assoc := (cfg.Size / cfg.LineSize) / sets
	c := &Cache{
		cfg:    cfg,
		sets:   make([][]line, sets),
		setLo:  log2(uint64(sets)),
		lineLo: log2(uint64(cfg.LineSize)),
		rng:    cfg.Seed | 1,
	}
	backing := make([]line, sets*assoc)
	for i := range c.sets {
		c.sets[i] = backing[i*assoc : (i+1)*assoc : (i+1)*assoc]
	}
	return c, nil
}

// MustNew is New but panics on error, for tests and benchmarks with
// constant configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func log2(v uint64) uint64 {
	var n uint64
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears counters without touching cache contents, so a
// warm-up phase can be excluded from measurement.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Reset invalidates every line and clears statistics.
func (c *Cache) Reset() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = line{}
		}
	}
	c.clock = 0
	c.stats = Stats{}
}

// lineIndex returns the global line index (addr / lineSize).
func (c *Cache) lineIndex(addr uint64) uint64 { return addr >> c.lineLo }

// split returns the set index and tag for an address.
func (c *Cache) split(addr uint64) (set, tag uint64) {
	l := c.lineIndex(addr)
	return l & ((1 << c.setLo) - 1), l >> c.setLo
}

// Access performs one reference and returns its outcome. write selects
// store vs load. Accesses are processed in one pass: lookup, then on a
// miss the policy-dependent allocate/victimize/bypass sequence.
func (c *Cache) Access(addr uint64, write bool) Outcome {
	c.clock++
	set, tag := c.split(addr)
	ways := c.sets[set]

	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}

	// Lookup.
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			if c.cfg.Replacement == LRU {
				ways[i].stamp = c.clock
			}
			if ways[i].prefetched {
				ways[i].prefetched = false
				c.stats.PrefetchHits++
			}
			if write {
				c.stats.WriteHits++
				if c.cfg.Write == WriteThrough {
					c.stats.Throughs++
					return Outcome{Hit: true, Through: true}
				}
				ways[i].dirty = true
			} else {
				c.stats.ReadHits++
			}
			return Outcome{Hit: true}
		}
	}

	// Miss.
	if write {
		c.stats.WriteMiss++
		if c.cfg.WriteMiss == WriteAround {
			c.stats.Bypasses++
			return Outcome{Bypassed: true}
		}
	} else {
		c.stats.ReadMiss++
	}

	// Allocate: pick a victim way.
	v := c.victim(ways)
	out := Outcome{Fill: true, FillLine: c.lineIndex(addr)}
	if ways[v].valid {
		out.Evicted = true
		out.EvictedLine = ways[v].tag<<c.setLo | set
		out.EvictedDirty = ways[v].dirty
	}
	if ways[v].valid && ways[v].dirty {
		out.Writeback = true
		c.stats.Writebacks++
	}
	dirty := write
	if c.cfg.Write == WriteThrough {
		// The store's data also goes to memory; the line stays clean.
		dirty = false
		if write {
			out.Through = true
			c.stats.Throughs++
		}
	}
	ways[v] = line{tag: tag, valid: true, dirty: dirty, stamp: c.clock}
	c.stats.Fills++

	if c.cfg.Prefetch {
		c.prefetchNext(c.lineIndex(addr) + 1)
	}
	return out
}

// prefetchNext speculatively fills lineIdx if absent, as next-line
// prefetch-on-miss does. Prefetch fills never cascade.
func (c *Cache) prefetchNext(lineIdx uint64) {
	set := lineIdx & ((1 << c.setLo) - 1)
	tag := lineIdx >> c.setLo
	ways := c.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			return // already resident
		}
	}
	v := c.victim(ways)
	if ways[v].valid && ways[v].dirty {
		c.stats.Writebacks++
	}
	ways[v] = line{tag: tag, valid: true, prefetched: true, stamp: c.clock}
	c.stats.PrefetchFills++
}

// victim returns the way index to replace in set ways: an invalid way if
// one exists, else per the replacement policy.
func (c *Cache) victim(ways []line) int {
	for i := range ways {
		if !ways[i].valid {
			return i
		}
	}
	switch c.cfg.Replacement {
	case Random:
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		return int(c.rng % uint64(len(ways)))
	default: // LRU and FIFO both evict the oldest stamp.
		v, min := 0, ways[0].stamp
		for i := 1; i < len(ways); i++ {
			if ways[i].stamp < min {
				v, min = i, ways[i].stamp
			}
		}
		return v
	}
}

// Contains reports whether the line holding addr is present (no state
// update, no statistics).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.split(addr)
	for _, w := range c.sets[set] {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// Dirty reports whether the line holding addr is present and dirty.
func (c *Cache) Dirty(addr uint64) bool {
	set, tag := c.split(addr)
	for _, w := range c.sets[set] {
		if w.valid && w.tag == tag {
			return w.dirty
		}
	}
	return false
}

// FlushAll writes back every dirty line and invalidates the cache,
// returning the number of lines flushed. Statistics are preserved and
// the flushes are counted as writebacks.
func (c *Cache) FlushAll() int {
	n := 0
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid && set[i].dirty {
				n++
				c.stats.Writebacks++
			}
			set[i] = line{}
		}
	}
	return n
}

// ValidLines returns the number of valid lines currently resident.
func (c *Cache) ValidLines() int {
	n := 0
	for _, set := range c.sets {
		for _, w := range set {
			if w.valid {
				n++
			}
		}
	}
	return n
}
