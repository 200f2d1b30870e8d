package mem

// The on-chip cache (Section 2, "Memory System"): 4 word-interleaved banks
// totalling 16 KW (128 KBytes of state in the paper's terms: 4 x 4KW banks,
// 32KB each), virtually addressed and tagged, with 8-word lines matching the
// block-status granularity. The banks are pipelined with a 3-cycle read
// latency including switch traversal.
//
// Word interleaving assigns word address a to bank a mod 4, so four
// consecutive word accesses proceed in parallel. A line logically spans the
// four banks (two words per bank); the model keeps the line as a unit and
// enforces per-bank port conflicts at the word level.

// CacheConfig sizes the cache.
type CacheConfig struct {
	Lines int // total lines (8 words each) across all banks
}

// DefaultCacheConfig is the paper's 4 x 4KW configuration: 16 KW / 8 = 2048
// lines, direct mapped.
func DefaultCacheConfig() CacheConfig { return CacheConfig{Lines: 2048} }

type cacheLine struct {
	valid    bool
	tag      uint64 // virtual block address / number of lines
	vblock   uint64 // virtual block address (addr / 8)
	physBase uint64 // physical word address of the block's first word
	writable bool   // fill-time block status allowed writes
	dirty    bool
	words    [BlockWords]uint64
	ptrs     [BlockWords]bool
}

// pageLines is the cache's allocation granule: a node holds (and a Fork
// copies, and a Save walks) only the pages of lines it has filled.
const pageLines = 64

type linePage [pageLines]cacheLine

// Cache is the node's on-chip data cache.
type Cache struct {
	cfg   CacheConfig `snap:"derived,fixed at construction; decode validates against it"`
	pages []*linePage // ⌈Lines/pageLines⌉ entries, nil until a line in it is filled

	Hits, Misses, Writebacks uint64
}

// NewCache allocates the cache's page table.
func NewCache(cfg CacheConfig) *Cache {
	return &Cache{cfg: cfg, pages: make([]*linePage, (cfg.Lines+pageLines-1)/pageLines)}
}

// lineFor returns the line vaddr maps to and whether it holds vaddr's
// block; the line is nil when its page was never filled.
func (c *Cache) lineFor(vaddr uint64) (*cacheLine, bool) {
	vblock := vaddr / BlockWords
	i := vblock % uint64(c.cfg.Lines)
	p := c.pages[i/pageLines]
	if p == nil {
		return nil, false
	}
	ln := &p[i%pageLines]
	return ln, ln.valid && ln.vblock == vblock
}

// line returns line i, allocating its page on first use.
func (c *Cache) line(i uint64) *cacheLine {
	p := c.pages[i/pageLines]
	if p == nil {
		p = new(linePage)
		c.pages[i/pageLines] = p
	}
	return &p[i%pageLines]
}

// Lookup probes the cache for vaddr without side effects on contents.
func (c *Cache) Lookup(vaddr uint64) (*cacheLine, bool) {
	ln, hit := c.lineFor(vaddr)
	if hit {
		c.Hits++
	} else {
		c.Misses++
	}
	return ln, hit
}

// Fill replaces the line for vaddr with the block read from SDRAM and
// returns the evicted line so dirty data can be written back. writable
// records the fill-time block status for later write-hit permission checks.
func (c *Cache) Fill(s *SDRAM, vaddr, physBase uint64, writable bool) cacheLine {
	vblock := vaddr / BlockWords
	lines := uint64(c.cfg.Lines)
	ln := c.line(vblock % lines)
	victim := *ln
	ln.valid = true
	ln.vblock = vblock
	ln.tag = vblock / lines
	ln.physBase = physBase &^ (BlockWords - 1)
	ln.writable = writable
	ln.dirty = false
	s.ReadBlock(ln.physBase, &ln.words, &ln.ptrs)
	return victim
}

// WriteBack flushes a victim line's words to SDRAM if dirty.
func (c *Cache) WriteBack(s *SDRAM, ln cacheLine) {
	if !ln.valid || !ln.dirty {
		return
	}
	c.Writebacks++
	s.WriteBlock(ln.physBase, &ln.words, &ln.ptrs)
}

// InvalidateBlock drops the line holding the block containing vaddr,
// writing it back first if dirty. Used by the block-status handlers when a
// block's state changes under software control (Section 4.3).
func (c *Cache) InvalidateBlock(s *SDRAM, vaddr uint64) {
	ln, hit := c.lineFor(vaddr)
	if hit {
		c.WriteBack(s, *ln)
		ln.valid = false
	}
}

// FlushAll writes back every dirty line and invalidates the cache.
func (c *Cache) FlushAll(s *SDRAM) {
	for _, p := range c.pages {
		if p == nil {
			continue
		}
		for i := range p {
			if p[i].valid {
				c.WriteBack(s, p[i])
				p[i].valid = false
			}
		}
	}
}

// BankOf returns the cache bank (0..3) serving word address a; consecutive
// words map to consecutive banks ("four word-interleaved banks").
func BankOf(vaddr uint64) int { return int(vaddr % 4) }
