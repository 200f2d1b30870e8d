package mem

// Paged-SDRAM exactness (DESIGN.md, "Checkpoint/restore"): SDRAM keeps its
// words in 512-word pages allocated at the first non-zero write, grouped
// in 8 KW chunk tables, and must be observably the chunk-allocated memory
// it replaced — the same reads and the same State bytes — while a Clone
// copies a table and a page only where a side writes, and a decoder
// refuses chunk or cache-line indices that do not increase.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/snap"
)

// refSDRAM is the chunk-allocated SDRAM this package had before pages,
// kept verbatim but for the type names and its State (and without
// page-mode timing, which the change did not touch) as the reference
// model.
type refSDRAM struct {
	cfg    SDRAMConfig `snap:"derived,fixed at construction; decode validates against it"`
	chunks []*refChunk
}

type refChunk struct {
	words [chunkWords]uint64
	ptr   [chunkWords / 64]uint64
	sync  [chunkWords / 64]uint64
}

func newRefSDRAM(cfg SDRAMConfig) *refSDRAM {
	return &refSDRAM{cfg: cfg, chunks: make([]*refChunk, (cfg.Words+chunkWords-1)/chunkWords)}
}

func (s *refSDRAM) chunkFor(pa uint64) *refChunk {
	i := pa / chunkWords
	if s.chunks[i] == nil {
		s.chunks[i] = new(refChunk)
	}
	return s.chunks[i]
}

func (s *refSDRAM) Read(pa uint64) (uint64, bool) {
	ch := s.chunks[pa/chunkWords]
	if ch == nil {
		return 0, false
	}
	off := pa % chunkWords
	return ch.words[off], ch.ptr[off/64]&(1<<(off%64)) != 0
}

func (s *refSDRAM) Write(pa uint64, w uint64, ptr bool) {
	ch := s.chunkFor(pa)
	off := pa % chunkWords
	ch.words[off] = w
	if ptr {
		ch.ptr[off/64] |= 1 << (off % 64)
	} else {
		ch.ptr[off/64] &^= 1 << (off % 64)
	}
}

func (s *refSDRAM) SyncBit(pa uint64) bool {
	ch := s.chunks[pa/chunkWords]
	if ch == nil {
		return false
	}
	return ch.sync[pa%chunkWords/64]&(1<<(pa%64)) != 0
}

func (s *refSDRAM) SetSyncBit(pa uint64, full bool) {
	if !full && s.chunks[pa/chunkWords] == nil {
		return
	}
	ch := s.chunkFor(pa)
	if full {
		ch.sync[pa%chunkWords/64] |= 1 << (pa % 64)
	} else {
		ch.sync[pa%chunkWords/64] &^= 1 << (pa % 64)
	}
}

// State is the chunk walk written from flat chunk memory, minus the row
// state and statistics an SDRAM walks first (sdramBody strips them from
// the paged side): every chunk with a page holding a non-zero word, tag
// or sync bit, as its index, its mask of such pages, and those pages.
func (s *refSDRAM) State(c *snap.Codec) {
	masks := make([]uint64, len(s.chunks))
	n := 0
	for i, ch := range s.chunks {
		for j := 0; ch != nil && j < chunkPages; j++ {
			if slices.ContainsFunc(slices.Concat(ch.page(j)...), func(w uint64) bool { return w != 0 }) {
				masks[i] |= 1 << j
			}
		}
		if masks[i] != 0 {
			n++
		}
	}
	c.Len(n, len(s.chunks))
	for i, ch := range s.chunks {
		if masks[i] == 0 {
			continue
		}
		c.Int(&i)
		c.U64(&masks[i])
		for j := 0; j < chunkPages; j++ {
			if masks[i]&(1<<j) != 0 {
				for _, ws := range ch.page(j) {
					c.RawU64s(ws)
				}
			}
		}
	}
}

// page returns page j's words, pointer-tag words and sync words.
func (ch *refChunk) page(j int) [][]uint64 {
	return [][]uint64{
		ch.words[j*PageWords : (j+1)*PageWords],
		ch.ptr[j*pageBits : (j+1)*pageBits],
		ch.sync[j*pageBits : (j+1)*pageBits],
	}
}

// sdramHeader is the byte length of the row state and statistics an
// SDRAM walks before its chunk count; pageRecord is a listed page's
// words, pointer-tag words and sync words.
const (
	sdramHeader = 8 + 1 + 8 + 8
	pageRecord  = (PageWords + 2*pageBits) * 8
)

// sdramBody is s's State bytes from the chunk count on.
func sdramBody(t *testing.T, s *SDRAM) []byte {
	return stateBytes(t, s.State)[sdramHeader:]
}

// Chunks the property test writes: chunk zeroChunk only ever sees zero
// words and cleared sync bits, so the paged SDRAM never allocates it.
var (
	propChunks = []uint64{0, 3, 127}
	zeroChunk  = uint64(9)
)

// propAddr draws an address in one of propChunks, in a few pages of it so
// that most pages stay absent.
func propAddr(rng *rand.Rand) uint64 {
	ch := propChunks[rng.Intn(len(propChunks))]
	page := uint64(rng.Intn(4)) * 5 % chunkPages
	return ch*chunkWords + page*PageWords + uint64(rng.Intn(PageWords))
}

func propWord(rng *rand.Rand) uint64 {
	if rng.Intn(3) == 0 {
		return 0
	}
	return rng.Uint64()
}

// sameSDRAM fails unless s has a chunk table only where ref has a chunk,
// reads like ref at every address of every chunk ref has, and walks to
// the same bytes.
func sameSDRAM(t *testing.T, when string, s *SDRAM, ref *refSDRAM) {
	t.Helper()
	for i := range ref.chunks {
		if s.chunks[i] != nil && ref.chunks[i] == nil {
			t.Fatalf("%s: chunk %d exists, the reference never wrote it", when, i)
		}
		if ref.chunks[i] == nil {
			continue
		}
		for pa := uint64(i) * chunkWords; pa < uint64(i+1)*chunkWords; pa++ {
			w, ptr := s.Read(pa)
			rw, rptr := ref.Read(pa)
			if w != rw || ptr != rptr || s.SyncBit(pa) != ref.SyncBit(pa) {
				t.Fatalf("%s: pa %d is (%d, ptr %v, sync %v), reference (%d, ptr %v, sync %v)",
					when, pa, w, ptr, s.SyncBit(pa), rw, rptr, ref.SyncBit(pa))
			}
		}
	}
	if !bytes.Equal(sdramBody(t, s), stateBytes(t, ref.State)) {
		t.Fatalf("%s: State bytes differ from the reference's", when)
	}
}

// TestSDRAMPagesMatchChunks: random words (a third of them zero), pointer
// tags, block transfers and sync sets and clears leave the paged SDRAM
// reading and encoding exactly as the chunk-allocated reference, with no
// table for a chunk only ever written zero; Save → decode → Save is
// byte-identical, and a decoder allocates only pages that hold a
// non-zero word or bit.
func TestSDRAMPagesMatchChunks(t *testing.T) {
	cfg := DefaultSDRAMConfig()
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s, ref := NewSDRAM(cfg), newRefSDRAM(cfg)
			for op := 0; op < 3000; op++ {
				pa := propAddr(rng)
				switch rng.Intn(6) {
				case 0, 1:
					w, ptr := propWord(rng), rng.Intn(4) == 0
					s.Write(pa, w, ptr)
					ref.Write(pa, w, ptr)
				case 2:
					full := rng.Intn(2) == 0
					s.SetSyncBit(pa, full)
					ref.SetSyncBit(pa, full)
				case 3:
					pa &^= BlockWords - 1
					var words [BlockWords]uint64
					var ptrs [BlockWords]bool
					if rng.Intn(3) > 0 {
						for i := range words {
							words[i], ptrs[i] = propWord(rng), rng.Intn(4) == 0
						}
					}
					s.WriteBlock(pa, &words, &ptrs)
					for i := range words {
						ref.Write(pa+uint64(i), words[i], ptrs[i])
					}
				case 4:
					pa &^= BlockWords - 1
					var words [BlockWords]uint64
					var ptrs [BlockWords]bool
					s.ReadBlock(pa, &words, &ptrs)
					for i := range words {
						if w, ptr := ref.Read(pa + uint64(i)); words[i] != w || ptrs[i] != ptr {
							t.Fatalf("op %d: ReadBlock(%d) word %d is (%d, %v), reference (%d, %v)",
								op, pa, i, words[i], ptrs[i], w, ptr)
						}
					}
				case 5:
					zpa := zeroChunk*chunkWords + pa%chunkWords
					s.Write(zpa, 0, false)
					s.SetSyncBit(zpa, false)
					ref.Write(zpa, 0, false)
					ref.SetSyncBit(zpa, false)
				}
				if op%500 == 0 {
					sameSDRAM(t, fmt.Sprintf("after op %d", op), s, ref)
				}
			}
			sameSDRAM(t, "at the end", s, ref)
			if ref.chunks[zeroChunk] == nil || s.chunks[zeroChunk] != nil {
				t.Fatalf("the zero-written chunk: reference %v, paged table %v; want a reference chunk and no table",
					ref.chunks[zeroChunk] != nil, s.chunks[zeroChunk])
			}

			want := stateBytes(t, s.State)
			dec := NewSDRAM(cfg)
			r := snap.NewDecoder(want)
			dec.State(r)
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			sameSDRAM(t, "decoded", dec, ref)
			if !bytes.Equal(stateBytes(t, dec.State), want) {
				t.Fatal("decoded SDRAM re-encodes differently")
			}
			for i, ch := range dec.chunks {
				if ch == nil {
					continue
				}
				for j, pg := range ch.pages {
					nonzero := s.chunks[i].mask()&(1<<j) != 0
					if held := pg != nil; held != nonzero {
						t.Errorf("decoded chunk %d page %d: allocated %v, holds a non-zero word or bit %v",
							i, j, held, nonzero)
					}
				}
			}
		})
	}
}

// TestSDRAMCloneCopiesOnePage: after Clone, a write on one side copies
// the chunk table and the one page written, and nothing else; the
// table's other pages stay shared with the other side, which still reads
// the old word.
func TestSDRAMCloneCopiesOnePage(t *testing.T) {
	s := NewSDRAM(DefaultSDRAMConfig())
	for j := uint64(0); j < chunkPages; j += 3 {
		s.Write(3*chunkWords+j*PageWords+7, j+1, true)
	}
	const pa = 3*chunkWords + 6*PageWords + 100
	c := s.Clone()
	c.Write(pa, 4242, false)
	if c.chunks[3] == s.chunks[3] {
		t.Fatal("the write did not copy the shared chunk table")
	}
	for j, pg := range c.chunks[3].pages {
		if copied := pg != s.chunks[3].pages[j]; copied != (j == 6) {
			t.Errorf("page %d: copied %v after a write to page 6 only", j, copied)
		}
	}
	if w, _ := s.Read(pa); w != 0 {
		t.Errorf("the other side reads %d at the written address, want 0", w)
	}
	if w, ptr := c.Read(3*chunkWords + 6*PageWords + 7); w != 7 || !ptr {
		t.Errorf("the copied page lost its old word: (%d, %v), want (7, true)", w, ptr)
	}

	// Allocations: a clone plus one write is the clone, one table and one
	// page; a second write to the same page allocates nothing.
	clone := testing.AllocsPerRun(20, func() { sdramSink = s.Clone() })
	write := testing.AllocsPerRun(20, func() {
		sdramSink = s.Clone()
		sdramSink.Write(pa, 1, false)
		sdramSink.Write(pa+1, 2, false)
	})
	if write-clone != 2 {
		t.Errorf("Clone and two writes to one page: %v allocations over the clone's %v, want 2 (table, page)",
			write, clone)
	}
}

var sdramSink *SDRAM

// TestSDRAMBootAllocation: a new SDRAM of the paper's size is its chunk
// table list, and a first write adds one table and one page — not a
// 64-KByte chunk.
func TestSDRAMBootAllocation(t *testing.T) {
	if n := bytesPerRun(50, func() { sdramSink = NewSDRAM(DefaultSDRAMConfig()) }); n > 1536 {
		t.Errorf("NewSDRAM allocates %d bytes, want <= 1536", n)
	}
	n := bytesPerRun(50, func() {
		sdramSink = NewSDRAM(DefaultSDRAMConfig())
		sdramSink.Write(1<<19+5, 1, false)
	})
	if n > 8<<10 {
		t.Errorf("NewSDRAM and one write allocate %d bytes, want <= 8 KB", n)
	}
}

// patchU64 returns a copy of b with the little-endian word at off set to v.
func patchU64(b []byte, off int, v uint64) []byte {
	b = bytes.Clone(b)
	binary.LittleEndian.PutUint64(b[off:], v)
	return b
}

// TestDecodeRejectsUnorderedIndices: an SDRAM stream whose second chunk
// index repeats or precedes the first, and a cache stream whose second
// line index does, fail to decode instead of letting the later record
// silently replace the earlier one.
func TestDecodeRejectsUnorderedIndices(t *testing.T) {
	s := NewSDRAM(DefaultSDRAMConfig())
	s.Write(2*chunkWords+5, 111, false)
	s.Write(4*chunkWords+5, 222, false)
	sb := stateBytes(t, s.State)
	second := sdramHeader + 8 + 8 + 8 + pageRecord // count, index, mask, one page

	ca := NewCache(DefaultCacheConfig())
	ca.Fill(s, 5*BlockWords, 5*BlockWords, true)
	ca.Fill(s, 9*BlockWords, 9*BlockWords, true)
	cb := stateBytes(t, ca.State)
	const lineBytes = 8 + 3*8 + 2 + BlockWords*8 + BlockWords
	secondLine := 4*8 + lineBytes

	for _, tc := range []struct {
		name   string
		stream []byte
		walk   func(*snap.Codec)
	}{
		{"sdram repeated", patchU64(sb, second, 2), NewSDRAM(DefaultSDRAMConfig()).State},
		{"sdram decreasing", patchU64(sb, second, 1), NewSDRAM(DefaultSDRAMConfig()).State},
		{"cache repeated", patchU64(cb, secondLine, 5), NewCache(DefaultCacheConfig()).State},
		{"cache decreasing", patchU64(cb, secondLine, 3), NewCache(DefaultCacheConfig()).State},
	} {
		r := snap.NewDecoder(tc.stream)
		tc.walk(r)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "indices must increase") {
			t.Errorf("%s: error %v, want increasing indices demanded", tc.name, err)
		}
	}
	// The offsets above are the second records' indices.
	if got := binary.LittleEndian.Uint64(sb[second:]); got != 4 {
		t.Errorf("SDRAM stream: word at the second index is %d, want chunk 4", got)
	}
	if got := binary.LittleEndian.Uint64(cb[secondLine:]); got != 9 {
		t.Errorf("cache stream: word at the second index is %d, want line 9", got)
	}
}

// TestLTLBDecodeRequiresOrderPermutation: the LTLB's replacement order
// must list every occupied slot exactly once, as the rotation from the
// oldest slot that Insert leaves. A full LTLB decoded with an empty order
// used to be accepted, and its next miss panicked indexing the empty FIFO.
func TestLTLBDecodeRequiresOrderPermutation(t *testing.T) {
	full := NewLTLB(4)
	for vpn := uint64(1); vpn <= 4; vpn++ {
		full.Insert(PTE{VPN: vpn, Valid: true})
	}
	for _, tc := range []struct {
		name  string
		order []int
	}{
		{"empty", nil},
		{"short", []int{0, 1, 2}},
		{"repeated", []int{0, 1, 1, 3}},
		{"permuted, not rotated", []int{0, 2, 1, 3}},
	} {
		// The stream full.State would write, with tc.order for its own.
		bad := stateBytes(t, func(c *snap.Codec) {
			c.Len(len(full.entries), maxLTLB)
			for i := range full.entries {
				full.entries[i].state(c)
			}
			c.Len(len(tc.order), maxLTLB)
			for i := range tc.order {
				c.Int(&tc.order[i])
			}
			c.U64(&full.Hits)
			c.U64(&full.Misses)
		})
		r := snap.NewDecoder(bad)
		NewLTLB(4).State(r)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "LTLB order") {
			t.Errorf("%s order: error %v, want the order rejected", tc.name, err)
		}
	}
	got := NewLTLB(4)
	r := snap.NewDecoder(stateBytes(t, full.State))
	got.State(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if v := got.Insert(PTE{VPN: 5, Valid: true}); v.VPN != 1 {
		t.Errorf("decoded LTLB evicted %+v, want vpn 1", v)
	}
}
