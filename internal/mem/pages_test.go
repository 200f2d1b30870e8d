package mem

// Paged-cache exactness (DESIGN.md, "Checkpoint/restore"): the cache keeps
// its lines in pages allocated at first fill, and must be observably the
// flat array it replaced — the same hits, victims, line contents,
// statistics and State bytes — while a Clone shares no page with its
// source and a decoder allocates exactly the pages a stream names.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/snap"
)

// refCache is the flat-array cache this package had before lines were
// paged, kept verbatim but for the type name as the reference model.
type refCache struct {
	cfg   CacheConfig `snap:"derived,fixed at construction; decode validates against it"`
	lines []cacheLine

	Hits, Misses, Writebacks uint64
}

func newRefCache(cfg CacheConfig) *refCache {
	return &refCache{cfg: cfg, lines: make([]cacheLine, cfg.Lines)}
}

func (c *refCache) lineFor(vaddr uint64) (*cacheLine, bool) {
	vblock := vaddr / BlockWords
	ln := &c.lines[vblock%uint64(len(c.lines))]
	return ln, ln.valid && ln.vblock == vblock
}

func (c *refCache) Lookup(vaddr uint64) (*cacheLine, bool) {
	ln, hit := c.lineFor(vaddr)
	if hit {
		c.Hits++
	} else {
		c.Misses++
	}
	return ln, hit
}

func (c *refCache) Fill(s *SDRAM, vaddr, physBase uint64, writable bool) cacheLine {
	vblock := vaddr / BlockWords
	ln := &c.lines[vblock%uint64(len(c.lines))]
	victim := *ln
	ln.valid = true
	ln.vblock = vblock
	ln.tag = vblock / uint64(len(c.lines))
	ln.physBase = physBase &^ (BlockWords - 1)
	ln.writable = writable
	ln.dirty = false
	for i := uint64(0); i < BlockWords; i++ {
		ln.words[i], ln.ptrs[i] = s.Read(ln.physBase + i)
	}
	return victim
}

func (c *refCache) WriteBack(s *SDRAM, ln cacheLine) {
	if !ln.valid || !ln.dirty {
		return
	}
	c.Writebacks++
	for i := uint64(0); i < BlockWords; i++ {
		s.Write(ln.physBase+i, ln.words[i], ln.ptrs[i])
	}
}

func (c *refCache) InvalidateBlock(s *SDRAM, vaddr uint64) {
	ln, hit := c.lineFor(vaddr)
	if hit {
		c.WriteBack(s, *ln)
		ln.valid = false
	}
}

func (c *refCache) FlushAll(s *SDRAM) {
	for i := range c.lines {
		if c.lines[i].valid {
			c.WriteBack(s, c.lines[i])
			c.lines[i].valid = false
		}
	}
}

func (ca *refCache) State(c *snap.Codec) {
	c.U64(&ca.Hits)
	c.U64(&ca.Misses)
	c.U64(&ca.Writebacks)
	n := 0
	if !c.Reading() {
		for i := range ca.lines {
			if ca.lines[i].valid {
				n++
			}
		}
	}
	idx := -1
	for range c.Len(n, len(ca.lines)) {
		if !c.Reading() {
			idx++
			for !ca.lines[idx].valid {
				idx++
			}
		}
		c.Int(&idx)
		if c.Reading() {
			if c.Err() != nil {
				break
			}
			if idx < 0 || idx >= len(ca.lines) {
				c.Fail(fmt.Errorf("mem: snapshot cache line %d outside %d-line cache", idx, len(ca.lines)))
				break
			}
			ca.lines[idx].valid = true
		}
		ln := &ca.lines[idx]
		c.U64(&ln.tag)
		c.U64(&ln.vblock)
		c.U64(&ln.physBase)
		c.Bool(&ln.writable)
		c.Bool(&ln.dirty)
		c.RawU64s(ln.words[:])
		for j := range ln.ptrs {
			c.Bool(&ln.ptrs[j])
		}
	}
}

func (c *refCache) Clone() *refCache {
	return &refCache{
		cfg:        c.cfg,
		lines:      slices.Clone(c.lines),
		Hits:       c.Hits,
		Misses:     c.Misses,
		Writebacks: c.Writebacks,
	}
}

// stateBytes encodes whatever walks a cache.
func stateBytes(t *testing.T, walk func(*snap.Codec)) []byte {
	t.Helper()
	var b bytes.Buffer
	c := snap.NewEncoder(&b)
	walk(c)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// sameCache fails unless the paged cache holds exactly the reference's
// lines — stale contents of invalidated lines included, and a missing
// page only where the reference's lines were never filled — statistics
// and State bytes.
func sameCache(t *testing.T, when string, c *Cache, ref *refCache) {
	t.Helper()
	if len(c.pages) != (len(ref.lines)+pageLines-1)/pageLines {
		t.Fatalf("%s: %d pages for %d lines", when, len(c.pages), len(ref.lines))
	}
	for i := range ref.lines {
		var got cacheLine
		if p := c.pages[i/pageLines]; p != nil {
			got = p[i%pageLines]
		}
		if got != ref.lines[i] {
			t.Fatalf("%s: line %d is %+v, reference %+v", when, i, got, ref.lines[i])
		}
	}
	if c.Hits != ref.Hits || c.Misses != ref.Misses || c.Writebacks != ref.Writebacks {
		t.Fatalf("%s: stats %d/%d/%d, reference %d/%d/%d", when,
			c.Hits, c.Misses, c.Writebacks, ref.Hits, ref.Misses, ref.Writebacks)
	}
	if !bytes.Equal(stateBytes(t, c.State), stateBytes(t, ref.State)) {
		t.Fatalf("%s: State bytes differ from the reference's", when)
	}
}

// cacheTwin drives a paged cache and the reference, each over its own
// SDRAM with identical contents, through the same operations.
type cacheTwin struct {
	c     *Cache
	ref   *refCache
	s, rs *SDRAM

	throughHits int // physical write-throughs that found their line
}

const twinPhysSpan = 1 << 16 // physical words the fills draw from

func newCacheTwin(lines int, rng *rand.Rand) *cacheTwin {
	tw := &cacheTwin{
		c: NewCache(CacheConfig{Lines: lines}), ref: newRefCache(CacheConfig{Lines: lines}),
		s: NewSDRAM(DefaultSDRAMConfig()), rs: NewSDRAM(DefaultSDRAMConfig()),
	}
	for pa := uint64(0); pa < twinPhysSpan; pa += 3 {
		w := rng.Uint64()
		tw.s.Write(pa, w, w%5 == 0)
		tw.rs.Write(pa, w, w%5 == 0)
	}
	return tw
}

// physOf is the fixed block placement the twin's fills use: identity, so
// a physical write-through probe finds the lines it should update.
func physOf(vaddr uint64) uint64 { return vaddr % twinPhysSpan }

func (tw *cacheTwin) fill(t *testing.T, vaddr uint64, writable bool) {
	t.Helper()
	v := tw.c.Fill(tw.s, vaddr, physOf(vaddr), writable)
	rv := tw.ref.Fill(tw.rs, vaddr, physOf(vaddr), writable)
	if v != rv {
		t.Fatalf("fill %#x: victim %+v, reference %+v", vaddr, v, rv)
	}
	tw.c.WriteBack(tw.s, v)
	tw.ref.WriteBack(tw.rs, rv)
}

// store is the write hit of finishAccess: the word, its tag, dirty.
func (tw *cacheTwin) store(t *testing.T, vaddr, w uint64) {
	t.Helper()
	ln, hit := tw.c.Lookup(vaddr)
	rln, rhit := tw.ref.Lookup(vaddr)
	if hit != rhit {
		t.Fatalf("store %#x: hit %v, reference %v", vaddr, hit, rhit)
	}
	if hit && ln.writable {
		ln.words[vaddr%BlockWords], ln.ptrs[vaddr%BlockWords], ln.dirty = w, w%2 == 0, true
		rln.words[vaddr%BlockWords], rln.ptrs[vaddr%BlockWords], rln.dirty = w, w%2 == 0, true
	}
}

func (tw *cacheTwin) step(t *testing.T, rng *rand.Rand, blocks uint64) {
	t.Helper()
	vaddr := rng.Uint64()%blocks*BlockWords + rng.Uint64()%BlockWords
	switch r := rng.Intn(100); {
	case r < 30:
		tw.fill(t, vaddr, rng.Intn(4) != 0)
	case r < 55:
		ln, hit := tw.c.Lookup(vaddr)
		rln, rhit := tw.ref.Lookup(vaddr)
		if hit != rhit || hit && *ln != *rln {
			t.Fatalf("lookup %#x: hit %v, reference %v", vaddr, hit, rhit)
		}
	case r < 70:
		tw.store(t, vaddr, rng.Uint64())
	case r < 80:
		// The physical write-through of ReqWritePhys: the cache is probed
		// with the physical address, and a line caching that block takes
		// the word.
		pa, w := physOf(vaddr), rng.Uint64()
		if ln, hit := tw.c.lineFor(pa); hit && ln.physBase == pa&^uint64(BlockWords-1) {
			ln.words[pa%BlockWords], ln.ptrs[pa%BlockWords] = w, false
			tw.throughHits++
		}
		if ln, hit := tw.ref.lineFor(pa); hit && ln.physBase == pa&^uint64(BlockWords-1) {
			ln.words[pa%BlockWords], ln.ptrs[pa%BlockWords] = w, false
		}
		tw.s.Write(pa, w, false)
		tw.rs.Write(pa, w, false)
	case r < 90:
		tw.c.InvalidateBlock(tw.s, vaddr)
		tw.ref.InvalidateBlock(tw.rs, vaddr)
	case r < 92:
		tw.c.FlushAll(tw.s)
		tw.ref.FlushAll(tw.rs)
	default:
		// PeekVirt's probe: no statistics.
		ln, hit := tw.c.lineFor(vaddr)
		rln, rhit := tw.ref.lineFor(vaddr)
		if hit != rhit || hit && *ln != *rln {
			t.Fatalf("peek %#x: hit %v, reference %v", vaddr, hit, rhit)
		}
	}
}

// TestCachePagesMatchFlat: random fills, lookups, store hits, physical
// write-throughs, invalidations and flushes leave the paged cache equal to
// the flat reference, line by line and byte by byte, for line counts below,
// at and around one page up to the paper's 2048; both SDRAMs end equal.
// Two more legs pin what the reference cannot show: a clone shares no
// page, and a decoder allocates exactly the pages its stream names.
func TestCachePagesMatchFlat(t *testing.T) {
	t.Run("clone", cacheCloneLeg)
	t.Run("decode", cacheDecodeLeg)
	for _, lines := range []int{1, 63, 64, 100, 256, 2048} {
		t.Run(fmt.Sprint(lines), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(lines)))
			tw := newCacheTwin(lines, rng)
			// A block range a few times the cache, so lines conflict, and
			// sparse enough at 2048 lines that some pages stay untouched
			// for a while.
			blocks := uint64(max(3*lines, 16))
			for op := 0; op < 4000; op++ {
				tw.step(t, rng, blocks)
				if op%250 == 0 {
					sameCache(t, fmt.Sprintf("after op %d", op), tw.c, tw.ref)
				}
			}
			sameCache(t, "at the end", tw.c, tw.ref)
			if tw.throughHits == 0 || tw.c.Writebacks == 0 || tw.c.Hits == 0 {
				t.Fatalf("write-through hits %d, writebacks %d, hits %d: the sequence missed a path",
					tw.throughHits, tw.c.Writebacks, tw.c.Hits)
			}
			for pa := uint64(0); pa < twinPhysSpan; pa++ {
				w, ptr := tw.s.Read(pa)
				rw, rptr := tw.rs.Read(pa)
				if w != rw || ptr != rptr {
					t.Fatalf("SDRAM word %d is (%d, %v), reference (%d, %v)", pa, w, ptr, rw, rptr)
				}
			}
		})
	}
}

// cacheCloneLeg: after Clone, stores, fills (one into a page neither side
// had at the clone), invalidations and a flush on either side leave the
// other exactly as it was.
func cacheCloneLeg(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tw := newCacheTwin(2048, rng)
	// Lines in pages 0 and 3 only.
	for _, blk := range []uint64{1, 2, 3*pageLines + 5, 3*pageLines + 9} {
		tw.fill(t, blk*BlockWords, true)
	}
	const fresh = 5 * pageLines // a block whose page is nil at the clone
	if tw.c.pages[fresh/pageLines] != nil {
		t.Fatal("the fresh page already exists")
	}
	mutate := func(c *Cache, s *SDRAM) {
		ln, hit := c.Lookup(BlockWords + 3)
		if !hit {
			t.Fatal("block 1 is not cached")
		}
		ln.words[3], ln.dirty = 0xdead, true
		c.Fill(s, fresh*BlockWords, physOf(fresh*BlockWords), true)
		c.InvalidateBlock(s, (3*pageLines+5)*BlockWords)
	}
	for _, dir := range []string{"clone", "source"} {
		src := tw.c
		cl := src.Clone()
		written, kept := cl, src
		if dir == "source" {
			written, kept = src, cl
		}
		before := stateBytes(t, kept.State)
		mutate(written, tw.s)
		if !bytes.Equal(stateBytes(t, kept.State), before) {
			t.Fatalf("writing the %s changed the other side's State", dir)
		}
		if kept.pages[fresh/pageLines] != nil {
			t.Fatalf("a fill on the %s allocated a page on the other side", dir)
		}
		if ln, hit := kept.lineFor(BlockWords + 3); !hit || ln.words[3] == 0xdead || ln.dirty {
			t.Fatalf("a store on the %s reached the other side", dir)
		}
		tw.c = kept
	}
	// A grandchild written only through FlushAll.
	cl := tw.c.Clone()
	before := stateBytes(t, tw.c.State)
	cl.FlushAll(tw.s)
	if !bytes.Equal(stateBytes(t, tw.c.State), before) {
		t.Fatal("FlushAll on a clone invalidated the source's lines")
	}
}

// cacheDecodeLeg: a stream with one valid line per far-apart page (the
// last line of the last page included) round-trips byte for byte and
// equals the flat reference's encoding; the decoder allocates exactly
// those pages, and a line index at or beyond the decoding cache's line
// count is an error.
func cacheDecodeLeg(t *testing.T) {
	const lines = 2048
	rng := rand.New(rand.NewSource(9))
	tw := newCacheTwin(lines, rng)
	idxs := []uint64{0, 7*pageLines + 33, 19*pageLines + 1, lines - 1}
	for _, i := range idxs {
		tw.fill(t, (i+lines)*BlockWords, true) // tag 1, so the tag is seen
	}
	want := stateBytes(t, tw.c.State)
	if !bytes.Equal(want, stateBytes(t, tw.ref.State)) {
		t.Fatal("encoding differs from the flat reference's")
	}
	dec := NewCache(CacheConfig{Lines: lines})
	r := snap.NewDecoder(want)
	dec.State(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if got := stateBytes(t, dec.State); !bytes.Equal(got, want) {
		t.Fatal("decoded cache re-encodes differently")
	}
	for p, pg := range dec.pages {
		if named := slices.ContainsFunc(idxs, func(i uint64) bool { return i/pageLines == uint64(p) }); named != (pg != nil) {
			t.Errorf("page %d: allocated %v, named by the stream %v", p, pg != nil, named)
		}
	}
	for _, short := range []int{lines - 1, 7*pageLines + 33} {
		r := snap.NewDecoder(want)
		NewCache(CacheConfig{Lines: short}).State(r)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("decoding into %d lines: error %v, want a line index outside the cache", short, err)
		}
	}
}

// bytesPerRun reports the heap bytes one call of f allocates, averaged
// over runs calls.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&b)
	return (b.TotalAlloc - a.TotalAlloc) / uint64(runs)
}

var cacheSink *Cache

// TestCacheAllocationPins: a new cache of the paper's size is its page
// table and nothing else, and a Clone costs one allocation per page that
// exists plus the cache and its page table.
func TestCacheAllocationPins(t *testing.T) {
	if n := bytesPerRun(100, func() { cacheSink = NewCache(DefaultCacheConfig()) }); n > 512 {
		t.Errorf("NewCache(DefaultCacheConfig()) allocates %d bytes, want <= 512", n)
	}
	c := NewCache(DefaultCacheConfig())
	s := NewSDRAM(DefaultSDRAMConfig())
	for k := 0; k <= 3; k++ {
		if k > 0 {
			blk := uint64(k*9) * pageLines // a new page each round
			c.Fill(s, blk*BlockWords, blk*BlockWords, true)
		}
		if allocs := testing.AllocsPerRun(20, func() { cacheSink = c.Clone() }); allocs != float64(k+2) {
			t.Errorf("Clone of a cache with %d pages: %v allocations, want %d", k, allocs, k+2)
		}
	}
}
