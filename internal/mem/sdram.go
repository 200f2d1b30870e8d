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

// chunkWords is the lazily-materialized SDRAM allocation granule: storage
// for a chunk (data words plus the out-of-band pointer-tag and
// synchronization bits) is allocated on first write. Untouched physical
// memory reads as zero either way, so laziness is invisible to programs,
// but booting a node costs microseconds instead of zeroing 8 MBytes — the
// dominant cost of experiment harnesses that build many fresh machines.
const chunkWords = 1 << 13 // 8 KW = 64 KBytes of data per chunk

type sdramChunk struct {
	words [chunkWords]uint64
	ptr   [chunkWords / 64]uint64
	sync  [chunkWords / 64]uint64
}

// SDRAM models a node's local synchronous DRAM: the word array plus the
// out-of-band pointer-tag and synchronization bits, and page-mode timing
// state. The SECDED error control of the paper's controller is represented
// by the (always-passing) integrity of the Go arrays; no latency is added,
// matching a no-error run.
type SDRAM struct {
	cfg    SDRAMConfig `snap:"derived,fixed at construction; decode validates against it"`
	chunks []*sdramChunk
	// shared[i] marks chunks[i] as also referenced by another SDRAM (the
	// other side of a Clone): it is then immutable, and the first write
	// replaces it with a private copy (chunkFor). The bit is per SDRAM,
	// never cleared by the other side's copy, so at worst the last owner
	// copies once more than it had to.
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

// chunkFor returns the chunk containing pa for writing: materialized if
// the memory was untouched, copied first if a Clone shares it. Every
// mutation of chunk contents goes through here; reads never do.
func (s *SDRAM) chunkFor(pa uint64) *sdramChunk {
	i := pa / chunkWords
	ch := s.chunks[i]
	switch {
	case ch == nil:
		ch = new(sdramChunk)
		s.chunks[i] = ch
	case s.shared[i]:
		own := new(sdramChunk)
		*own = *ch
		ch = own
		s.chunks[i], s.shared[i] = ch, false
	}
	return ch
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
	ch := s.chunks[pa/chunkWords]
	if ch == nil {
		return 0, false
	}
	off := pa % chunkWords
	return ch.words[off], ch.ptr[off/64]&(1<<(off%64)) != 0
}

// Write stores a word and its pointer tag at physical address pa.
func (s *SDRAM) Write(pa uint64, w uint64, ptr bool) {
	s.check(pa)
	ch := s.chunkFor(pa)
	off := pa % chunkWords
	ch.words[off] = w
	if ptr {
		ch.ptr[off/64] |= 1 << (off % 64)
	} else {
		ch.ptr[off/64] &^= 1 << (off % 64)
	}
}

// SyncBit returns the synchronization bit for physical address pa.
func (s *SDRAM) SyncBit(pa uint64) bool {
	s.check(pa)
	ch := s.chunks[pa/chunkWords]
	if ch == nil {
		return false
	}
	return ch.sync[pa%chunkWords/64]&(1<<(pa%64)) != 0
}

// SetSyncBit sets or clears the synchronization bit for pa.
func (s *SDRAM) SetSyncBit(pa uint64, full bool) {
	s.check(pa)
	if !full && s.chunks[pa/chunkWords] == nil {
		return // untouched memory is already empty
	}
	ch := s.chunkFor(pa)
	if full {
		ch.sync[pa%chunkWords/64] |= 1 << (pa % 64)
	} else {
		ch.sync[pa%chunkWords/64] &^= 1 << (pa % 64)
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
