// Package mem implements an M-Machine node's memory system (Section 2,
// "Memory System", and Section 4.3): the external SDRAM with page-mode
// timing, the four word-interleaved on-chip cache banks, the local
// translation lookaside buffer (LTLB) backed by a local page table (LPT)
// resident in physical memory, the per-cache-block status bits used for
// caching remote data in local DRAM, and the per-word synchronization bits.
//
// All addresses are 64-bit word addresses. Pages are 512 words and cache
// blocks 8 words, exactly as in the paper.
package mem

import "fmt"

// Architectural constants (Section 2).
const (
	PageWords     = 512 // "Pages are 512 words"
	BlockWords    = 8   // "(64 8-word cache blocks)"
	BlocksPerPage = PageWords / BlockWords
)

// SDRAMConfig carries the external memory interface timing (Section 2: "The
// SDRAM controller exploits the pipeline and page mode of the external
// memory").
type SDRAMConfig struct {
	Words      uint64 // physical memory size in words (1 MW = 8 MBytes per node)
	RowWords   uint64 // words per SDRAM row (page-mode granularity)
	RowHitLat  int64  // block access latency when the row is already open
	RowMissLat int64  // block access latency when a new row must be opened
}

// DefaultSDRAMConfig matches the paper's 1 MW (8 MByte) node and is
// calibrated so that a local cache-miss read completes in 13 cycles and a
// local cache-miss write in 19 (Table 1).
func DefaultSDRAMConfig() SDRAMConfig {
	return SDRAMConfig{
		Words:      1 << 20, // 1 MW = 8 MBytes
		RowWords:   1024,
		RowHitLat:  10,
		RowMissLat: 14,
	}
}

// SDRAM storage is allocated by the paper's 512-word page: a page's data
// words plus its out-of-band pointer-tag and synchronization bits exist
// only once something non-zero was written there. Untouched physical
// memory reads as zero either way, so laziness is invisible to programs,
// but booting a node costs one page for the runtime's allocator counter
// instead of zeroing 8 MBytes — the dominant cost of experiment harnesses
// that build many fresh machines.
//
// Pages are grouped in 8 KW chunks, the snapshot stream's unit: a chunk
// is a table of page pointers, and the stream lists only the pages that
// hold data (SDRAM.State).
const (
	chunkWords = 1 << 13 // 8 KW = 64 KBytes of data per chunk
	chunkPages = chunkWords / PageWords
	pageBits   = PageWords / 64 // pointer-tag or sync words per page
)

type sdramPage struct {
	words [PageWords]uint64
	ptr   [pageBits]uint64
	sync  [pageBits]uint64
}

// zeroPage is what an absent page reads as: a page equal to it holds no
// data and stays out of the stream.
var zeroPage sdramPage

type sdramChunk struct {
	pages [chunkPages]*sdramPage
	// shared marks pages also referenced by another chunk table (the
	// table was copied from one a Clone shared): such a page is
	// immutable, and the first write replaces it with a private copy.
	shared uint16 `snap:"derived,copy-on-write ownership; a decoded chunk owns every page"`
}

// SDRAM models a node's local synchronous DRAM: the word array plus the
// out-of-band pointer-tag and synchronization bits, and page-mode timing
// state. The SECDED error control of the paper's controller is represented
// by the (always-passing) integrity of the Go arrays; no latency is added,
// matching a no-error run.
type SDRAM struct {
	cfg    SDRAMConfig `snap:"derived,fixed at construction; decode validates against it"`
	chunks []*sdramChunk
	// shared[i] marks chunks[i]'s table as also referenced by another
	// SDRAM (the other side of a Clone): it is then immutable, and the
	// first write through it copies the table, marking every page in it
	// shared (pageFor). The bit is per SDRAM, never cleared by the other
	// side's copy, so at worst the last owner copies once more than it
	// had to.
	shared  []bool `snap:"derived,copy-on-write ownership, set by Clone; a decoded SDRAM owns every chunk"`
	openRow uint64
	hasOpen bool

	// Stats.
	RowHits, RowMisses uint64
}

// NewSDRAM builds the physical memory; storage materializes on first write.
func NewSDRAM(cfg SDRAMConfig) *SDRAM {
	n := (cfg.Words + chunkWords - 1) / chunkWords
	return &SDRAM{
		cfg:    cfg,
		chunks: make([]*sdramChunk, n),
		shared: make([]bool, n),
	}
}

// page returns the page holding pa for reading, nil if it was never
// written.
func (s *SDRAM) page(pa uint64) *sdramPage {
	ch := s.chunks[pa/chunkWords]
	if ch == nil {
		return nil
	}
	return ch.pages[pa%chunkWords/PageWords]
}

// chunkFor returns chunk i's table for writing: created if the chunk was
// untouched, copied first if a Clone shares it.
func (s *SDRAM) chunkFor(i uint64) *sdramChunk {
	ch := s.chunks[i]
	switch {
	case ch == nil:
		ch = new(sdramChunk)
		s.chunks[i] = ch
	case s.shared[i]:
		own := &sdramChunk{pages: ch.pages}
		for j, pg := range own.pages {
			if pg != nil {
				own.shared |= 1 << j
			}
		}
		ch = own
		s.chunks[i], s.shared[i] = ch, false
	}
	return ch
}

// pageFor returns the page containing pa for writing: materialized if the
// memory was untouched, copied first if another table shares it. Every
// mutation of page contents goes through here; reads never do.
func (s *SDRAM) pageFor(pa uint64) *sdramPage {
	ch := s.chunkFor(pa / chunkWords)
	j := pa % chunkWords / PageWords
	pg := ch.pages[j]
	switch {
	case pg == nil:
		pg = new(sdramPage)
		ch.pages[j] = pg
	case ch.shared&(1<<j) != 0:
		own := new(sdramPage)
		*own = *pg
		pg = own
		ch.pages[j] = pg
		ch.shared &^= 1 << j
	}
	return pg
}

// Size returns the physical capacity in words.
func (s *SDRAM) Size() uint64 { return s.cfg.Words }

func (s *SDRAM) check(pa uint64) {
	if pa >= s.cfg.Words {
		panic(fmt.Sprintf("mem: physical address %#x out of range (%#x words)", pa, s.cfg.Words))
	}
}

// Read returns the word and pointer tag at physical address pa.
func (s *SDRAM) Read(pa uint64) (uint64, bool) {
	s.check(pa)
	pg := s.page(pa)
	if pg == nil {
		return 0, false
	}
	off := pa % PageWords
	return pg.words[off], pg.ptr[off/64]&(1<<(off%64)) != 0
}

// Write stores a word and its pointer tag at physical address pa. A zero
// untagged word written to an absent page allocates nothing.
func (s *SDRAM) Write(pa uint64, w uint64, ptr bool) {
	s.check(pa)
	if w == 0 && !ptr && s.page(pa) == nil {
		return
	}
	pg := s.pageFor(pa)
	off := pa % PageWords
	pg.words[off] = w
	if ptr {
		pg.ptr[off/64] |= 1 << (off % 64)
	} else {
		pg.ptr[off/64] &^= 1 << (off % 64)
	}
}

// ReadBlock copies the 8-word block at block-aligned physical address pa,
// with its pointer tags, into words and ptrs: one page lookup per block.
func (s *SDRAM) ReadBlock(pa uint64, words *[BlockWords]uint64, ptrs *[BlockWords]bool) {
	s.check(pa + BlockWords - 1)
	pg := s.page(pa)
	if pg == nil {
		*words, *ptrs = [BlockWords]uint64{}, [BlockWords]bool{}
		return
	}
	off := pa % PageWords
	copy(words[:], pg.words[off:off+BlockWords])
	bits := pg.ptr[off/64] >> (off % 64)
	for i := range ptrs {
		ptrs[i] = bits&(1<<i) != 0
	}
}

// WriteBlock stores the 8-word block at block-aligned physical address pa
// and its pointer tags: one page lookup per block. Like Write, an
// all-zero untagged block written to an absent page allocates nothing.
func (s *SDRAM) WriteBlock(pa uint64, words *[BlockWords]uint64, ptrs *[BlockWords]bool) {
	s.check(pa + BlockWords - 1)
	var bits uint64
	for i, p := range ptrs {
		if p {
			bits |= 1 << i
		}
	}
	if bits == 0 && *words == ([BlockWords]uint64{}) && s.page(pa) == nil {
		return
	}
	pg := s.pageFor(pa)
	off := pa % PageWords
	copy(pg.words[off:off+BlockWords], words[:])
	pg.ptr[off/64] = pg.ptr[off/64]&^((1<<BlockWords-1)<<(off%64)) | bits<<(off%64)
}

// SyncBit returns the synchronization bit for physical address pa.
func (s *SDRAM) SyncBit(pa uint64) bool {
	s.check(pa)
	pg := s.page(pa)
	if pg == nil {
		return false
	}
	off := pa % PageWords
	return pg.sync[off/64]&(1<<(off%64)) != 0
}

// SetSyncBit sets or clears the synchronization bit for pa.
func (s *SDRAM) SetSyncBit(pa uint64, full bool) {
	s.check(pa)
	if !full && s.page(pa) == nil {
		return // untouched memory is already empty
	}
	pg := s.pageFor(pa)
	off := pa % PageWords
	if full {
		pg.sync[off/64] |= 1 << (off % 64)
	} else {
		pg.sync[off/64] &^= 1 << (off % 64)
	}
}

// AccessLatency returns the latency of a block access beginning at physical
// address pa and records the row state transition (page mode).
func (s *SDRAM) AccessLatency(pa uint64) int64 {
	s.check(pa)
	row := pa / s.cfg.RowWords
	if s.hasOpen && row == s.openRow {
		s.RowHits++
		return s.cfg.RowHitLat
	}
	s.openRow = row
	s.hasOpen = true
	s.RowMisses++
	return s.cfg.RowMissLat
}
