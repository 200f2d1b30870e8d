package mem

// Checkpoint support (DESIGN.md, "Checkpoint/restore"): the memory
// system's complete timed state — sparse SDRAM chunks and pages with their
// pointer-tag and synchronization bitmaps, cache lines, LTLB entries and
// FIFO order, in-flight responses, and the bank/SDRAM timing windows.
// State walks it, filling a system from NewSystem when decoding (all
// validation happens in the walk), and Clone is the fork path: the same
// fields copied into an independent system, with the SDRAM chunk tables
// and pages shared copy-on-write. A decoded system keeps whatever I/O-bus
// device its shell had, a clone has none; the owning chip attaches its
// own (AttachDevice).

import (
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/snap"
)

// Decode bounds against corrupt counts.
const (
	maxInflight = 1 << 20
	maxLTLB     = 1 << 16
)

// State walks the SDRAM's row-mode state, statistics, and every chunk
// holding data, each as its index (indices strictly increase), a mask of
// its pages that hold a non-zero word, pointer tag or sync bit, and those
// pages in order, each as its words, pointer-tag words and sync words.
// Pages and chunks holding nothing are left out, so the stream is a
// function of memory contents alone, not of which pages or tables were
// ever allocated. A decoder refuses a mask that is zero or names a page
// past the chunk, and a listed page holding nothing, so Save(Restore(x))
// is x byte for byte.
func (s *SDRAM) State(c *snap.Codec) {
	c.U64(&s.openRow)
	c.Bool(&s.hasOpen)
	c.U64(&s.RowHits)
	c.U64(&s.RowMisses)
	n := 0
	if !c.Reading() {
		for _, ch := range s.chunks {
			if ch.mask() != 0 {
				n++
			}
		}
	}
	idx := -1
	for range c.Len(n, len(s.chunks)) {
		prev := idx
		var mask uint64
		if !c.Reading() {
			for mask == 0 {
				idx++
				mask = s.chunks[idx].mask()
			}
		}
		c.Int(&idx)
		c.U64(&mask)
		if c.Reading() {
			switch {
			case c.Err() != nil:
				return
			case idx >= len(s.chunks):
				c.Fail(fmt.Errorf("mem: snapshot chunk index %d outside %d-chunk SDRAM", idx, len(s.chunks)))
				return
			case idx <= prev:
				c.Fail(fmt.Errorf("mem: snapshot chunk index %d follows chunk %d: indices must increase", idx, prev))
				return
			case mask == 0:
				c.Fail(fmt.Errorf("mem: snapshot chunk %d lists no page", idx))
				return
			case mask >= 1<<chunkPages:
				c.Fail(fmt.Errorf("mem: snapshot chunk %d page mask %#x names a page beyond its %d", idx, mask, chunkPages))
				return
			}
			s.chunks[idx] = new(sdramChunk)
		}
		ch := s.chunks[idx]
		for j := range ch.pages {
			if mask&(1<<j) == 0 {
				continue
			}
			if c.Reading() {
				ch.pages[j] = new(sdramPage)
			}
			pg := ch.pages[j]
			c.RawU64s(pg.words[:])
			c.RawU64s(pg.ptr[:])
			c.RawU64s(pg.sync[:])
			if c.Reading() && c.Err() == nil && *pg == zeroPage {
				c.Fail(fmt.Errorf("mem: snapshot chunk %d page %d is listed but holds no data", idx, j))
			}
		}
	}
}

// mask returns the set of ch's pages holding a non-zero word, pointer tag
// or sync bit; zero for a nil table.
func (ch *sdramChunk) mask() uint64 {
	var m uint64
	if ch != nil {
		for j, pg := range ch.pages {
			if pg != nil && *pg != zeroPage {
				m |= 1 << j
			}
		}
	}
	return m
}

// Clone returns an independent SDRAM with s's contents. The chunk tables
// are not copied: both sides mark them shared, and whichever writes
// through one first copies the table, whose pages it then marks shared,
// and copies a page only when it writes that page (pageFor). A page
// reachable from two SDRAMs is never written, so the two may be used from
// different goroutines without synchronization.
func (s *SDRAM) Clone() *SDRAM {
	for i, ch := range s.chunks {
		s.shared[i] = ch != nil
	}
	return &SDRAM{
		cfg:       s.cfg,
		chunks:    slices.Clone(s.chunks),
		shared:    slices.Clone(s.shared),
		openRow:   s.openRow,
		hasOpen:   s.hasOpen,
		RowHits:   s.RowHits,
		RowMisses: s.RowMisses,
	}
}

// State walks the cache statistics and every valid line, each preceded by
// its index; indices strictly increase. Only pages that exist are counted
// and scanned; a decoder allocates the page of each line it reads.
func (ca *Cache) State(c *snap.Codec) {
	c.U64(&ca.Hits)
	c.U64(&ca.Misses)
	c.U64(&ca.Writebacks)
	n := 0
	if !c.Reading() {
		for _, p := range ca.pages {
			if p != nil {
				for i := range p {
					if p[i].valid {
						n++
					}
				}
			}
		}
	}
	idx := -1
	for range c.Len(n, ca.cfg.Lines) {
		if !c.Reading() {
			for idx++; ; idx++ {
				if p := ca.pages[idx/pageLines]; p == nil {
					idx |= pageLines - 1 // skip the page; the loop steps past it
				} else if p[idx%pageLines].valid {
					break
				}
			}
		}
		prev := idx
		c.Int(&idx)
		if c.Reading() {
			if c.Err() != nil {
				break
			}
			if idx >= ca.cfg.Lines {
				c.Fail(fmt.Errorf("mem: snapshot cache line %d outside %d-line cache", idx, ca.cfg.Lines))
				break
			}
			if idx <= prev {
				c.Fail(fmt.Errorf("mem: snapshot cache line %d follows line %d: indices must increase", idx, prev))
				break
			}
			ca.line(uint64(idx)).valid = true
		}
		ln := &ca.pages[idx/pageLines][idx%pageLines]
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

// Clone returns an independent cache with c's lines and statistics: every
// page that exists is copied, none is shared, so the two caches can be
// used from different goroutines.
func (c *Cache) Clone() *Cache {
	pages := make([]*linePage, len(c.pages))
	for i, p := range c.pages {
		if p != nil {
			pages[i] = new(linePage)
			*pages[i] = *p
		}
	}
	return &Cache{
		cfg:        c.cfg,
		pages:      pages,
		Hits:       c.Hits,
		Misses:     c.Misses,
		Writebacks: c.Writebacks,
	}
}

func (e *PTE) state(c *snap.Codec) {
	c.U64(&e.VPN)
	c.U64(&e.PPN)
	c.Bool(&e.Valid)
	c.U64(&e.Status[0])
	c.U64(&e.Status[1])
}

// State walks the LTLB's entry slots (including invalidated ones — the
// FIFO order indexes into them), replacement order, and statistics. The
// order is written out slot by slot, oldest first, from head; a decoder
// accepts only what Insert can leave: a rotation of every slot, starting
// at 0 unless the LTLB is full.
func (t *LTLB) State(c *snap.Codec) {
	n := c.Len(len(t.entries), maxLTLB)
	for i := 0; i < n && c.Err() == nil; i++ {
		snap.Elem(c, &t.entries, i).state(c)
	}
	no := c.Len(n, maxLTLB)
	if c.Reading() && c.Err() == nil {
		if no != n {
			c.Fail(fmt.Errorf("mem: snapshot LTLB order lists %d slots of %d entries", no, n))
		}
		t.head = 0
	}
	for i := 0; i < no && c.Err() == nil; i++ {
		slot := (t.head + i) % n
		want := slot
		c.Int(&slot)
		if c.Reading() && c.Err() == nil {
			if i == 0 && slot > 0 && slot < n && n == t.capacity {
				t.head, want = slot, slot
			}
			if slot != want {
				c.Fail(fmt.Errorf("mem: snapshot LTLB order slot %d at position %d, want %d: not the rotation of %d slots from %d", slot, i, want, n, t.head))
			}
		}
	}
	if c.Reading() && c.Err() == nil && n > t.capacity {
		c.Fail(fmt.Errorf("mem: snapshot LTLB has %d entries, capacity %d", n, t.capacity))
	}
	c.U64(&t.Hits)
	c.U64(&t.Misses)
}

// Clone returns an independent LTLB with t's entries, head, and
// statistics.
func (t *LTLB) Clone() *LTLB {
	return &LTLB{
		entries:  slices.Clone(t.entries),
		head:     t.head,
		capacity: t.capacity,
		Hits:     t.Hits,
		Misses:   t.Misses,
	}
}

func (q *Request) state(c *snap.Codec) {
	snap.Integer(c, &q.Kind)
	c.U64(&q.Addr)
	c.U64(&q.Data)
	c.Bool(&q.DataPtr)
	snap.Integer(c, &q.Pre)
	snap.Integer(c, &q.Post)
	c.U64(&q.Token)
	if c.Reading() && c.Err() == nil && (q.Kind > ReqWritePhys || q.Pre > isa.SyncEmpty || q.Post > isa.SyncEmpty) {
		c.Fail(fmt.Errorf("mem: bad snapshot request kind=%d pre=%d post=%d", q.Kind, q.Pre, q.Post))
	}
}

// State walks the memory system's own timed state — in-flight responses
// in submission order, the per-bank and SDRAM busy windows, and the fault
// counters — then the SDRAM, cache, and LTLB. A decoder fills a system
// from NewSystem and recomputes the earliest-deadline cache from the
// decoded in-flight set.
func (m *System) State(c *snap.Codec) {
	n := c.Len(len(m.inflight), maxInflight)
	for i := 0; i < n && c.Err() == nil; i++ {
		resp := snap.Elem(c, &m.inflight, i)
		resp.Req.state(c)
		c.U64(&resp.Data)
		c.Bool(&resp.DataPtr)
		snap.Integer(c, &resp.Fault)
		c.I64(&resp.ReadyAt)
		if c.Reading() {
			if c.Err() == nil && resp.Fault > FaultSync {
				c.Fail(fmt.Errorf("mem: bad snapshot fault %d", resp.Fault))
			}
			m.earliest = min(m.earliest, resp.ReadyAt)
		}
	}
	for i := range m.bankFreeAt {
		c.I64(&m.bankFreeAt[i])
	}
	c.I64(&m.sdramFree)
	c.U64(&m.LTLBFaults)
	c.U64(&m.StatusFaults)
	c.U64(&m.SyncFaults)
	m.SDRAM.State(c)
	m.Cache.State(c)
	m.LTLB.State(c)
	for _, e := range m.LTLB.entries {
		if c.Reading() && c.Err() == nil && !m.inSDRAM(e) {
			c.Fail(fmt.Errorf("mem: snapshot LTLB maps page %d outside SDRAM", e.VPN))
		}
	}
}

// PendingResponses exposes the in-flight responses for cross-component
// snapshot validation: chip decode verifies every response has routable
// request metadata before Restore installs anything. Callers must not
// mutate the returned slice.
func (m *System) PendingResponses() []Response { return m.inflight }

// Clone returns an independent memory system with m's state and
// configuration and no I/O-bus device: the owner attaches the clone's
// own (AttachDevice).
func (m *System) Clone() *System {
	return &System{
		cfg:          m.cfg,
		SDRAM:        m.SDRAM.Clone(),
		Cache:        m.Cache.Clone(),
		LTLB:         m.LTLB.Clone(),
		inflight:     slices.Clone(m.inflight),
		earliest:     m.earliest,
		bankFreeAt:   m.bankFreeAt,
		sdramFree:    m.sdramFree,
		LTLBFaults:   m.LTLBFaults,
		StatusFaults: m.StatusFaults,
		SyncFaults:   m.SyncFaults,
	}
}
