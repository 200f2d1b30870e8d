package mem

// Checkpoint support (DESIGN.md, "Checkpoint/restore"): the memory
// system's complete timed state — sparse SDRAM chunks with their
// pointer-tag and synchronization bitmaps, cache lines, LTLB entries and
// FIFO order, in-flight responses, and the bank/SDRAM timing windows.
// EncodeState streams, DecodeSystemState builds a new system from the
// stream (all validation happens here), and Clone is the fork path: the
// same fields copied into an independent system, with the SDRAM chunks
// shared copy-on-write. Neither result has an I/O-bus device; the owning
// chip attaches its own (AttachDevice).

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

// EncodeState writes the SDRAM's row-mode state, statistics, and the
// materialized chunks (lazy chunks that were never written are omitted —
// they read as zero either way).
func (s *SDRAM) EncodeState(w *snap.Writer) {
	w.U64(s.openRow)
	w.Bool(s.hasOpen)
	w.U64(s.RowHits)
	w.U64(s.RowMisses)
	n := 0
	for _, ch := range s.chunks {
		if ch != nil {
			n++
		}
	}
	w.Len(n)
	for i, ch := range s.chunks {
		if ch == nil {
			continue
		}
		w.Int(i)
		w.RawU64s(ch.words[:])
		w.RawU64s(ch.ptr[:])
		w.RawU64s(ch.sync[:])
	}
}

// DecodeSDRAMState reads an SDRAM written by EncodeState.
func DecodeSDRAMState(r *snap.Reader, cfg SDRAMConfig) *SDRAM {
	s := NewSDRAM(cfg)
	s.openRow = r.U64()
	s.hasOpen = r.Bool()
	s.RowHits = r.U64()
	s.RowMisses = r.U64()
	n := r.Len(len(s.chunks))
	for i := 0; i < n; i++ {
		idx := r.Int()
		if r.Err() != nil {
			break
		}
		if idx < 0 || idx >= len(s.chunks) {
			r.Fail(fmt.Errorf("mem: snapshot chunk index %d outside %d-chunk SDRAM", idx, len(s.chunks)))
			break
		}
		ch := new(sdramChunk)
		r.RawU64s(ch.words[:])
		r.RawU64s(ch.ptr[:])
		r.RawU64s(ch.sync[:])
		s.chunks[idx] = ch
	}
	return s
}

// Clone returns an independent SDRAM with s's contents. The materialized
// chunks are not copied: both sides mark them shared and whichever
// writes one first takes a private copy (chunkFor). A shared chunk is
// never written, so the two SDRAMs may be used from different goroutines
// without synchronization.
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

// EncodeState writes the cache statistics and every valid line.
func (c *Cache) EncodeState(w *snap.Writer) {
	w.U64(c.Hits)
	w.U64(c.Misses)
	w.U64(c.Writebacks)
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	w.Len(n)
	for i := range c.lines {
		ln := &c.lines[i]
		if !ln.valid {
			continue
		}
		w.Int(i)
		w.U64(ln.tag)
		w.U64(ln.vblock)
		w.U64(ln.physBase)
		w.Bool(ln.writable)
		w.Bool(ln.dirty)
		w.RawU64s(ln.words[:])
		for _, p := range ln.ptrs {
			w.Bool(p)
		}
	}
}

// DecodeCacheState reads a cache written by EncodeState.
func DecodeCacheState(r *snap.Reader, cfg CacheConfig) *Cache {
	c := NewCache(cfg)
	c.Hits = r.U64()
	c.Misses = r.U64()
	c.Writebacks = r.U64()
	n := r.Len(len(c.lines))
	for i := 0; i < n; i++ {
		idx := r.Int()
		if r.Err() != nil {
			break
		}
		if idx < 0 || idx >= len(c.lines) {
			r.Fail(fmt.Errorf("mem: snapshot cache line %d outside %d-line cache", idx, len(c.lines)))
			break
		}
		ln := &c.lines[idx]
		ln.valid = true
		ln.tag = r.U64()
		ln.vblock = r.U64()
		ln.physBase = r.U64()
		ln.writable = r.Bool()
		ln.dirty = r.Bool()
		r.RawU64s(ln.words[:])
		for j := range ln.ptrs {
			ln.ptrs[j] = r.Bool()
		}
	}
	return c
}

// Clone returns an independent cache with c's lines and statistics.
func (c *Cache) Clone() *Cache {
	return &Cache{
		cfg:        c.cfg,
		lines:      slices.Clone(c.lines),
		Hits:       c.Hits,
		Misses:     c.Misses,
		Writebacks: c.Writebacks,
	}
}

func encodePTE(w *snap.Writer, e *PTE) {
	w.U64(e.VPN)
	w.U64(e.PPN)
	w.Bool(e.Valid)
	w.U64(e.Status[0])
	w.U64(e.Status[1])
}

func decodePTE(r *snap.Reader) PTE {
	return PTE{
		VPN:    r.U64(),
		PPN:    r.U64(),
		Valid:  r.Bool(),
		Status: [2]uint64{r.U64(), r.U64()},
	}
}

// EncodeState writes the LTLB's entry slots (including invalidated ones —
// the FIFO order indexes into them), replacement order, and statistics.
func (t *LTLB) EncodeState(w *snap.Writer) {
	w.Len(len(t.entries))
	for i := range t.entries {
		encodePTE(w, &t.entries[i])
	}
	w.Len(len(t.order))
	for _, i := range t.order {
		w.Int(i)
	}
	w.U64(t.Hits)
	w.U64(t.Misses)
}

// DecodeLTLBState reads an LTLB written by EncodeState.
func DecodeLTLBState(r *snap.Reader, capacity int) *LTLB {
	t := NewLTLB(capacity)
	n := r.Len(maxLTLB)
	for i := 0; i < n; i++ {
		t.entries = append(t.entries, decodePTE(r))
	}
	no := r.Len(maxLTLB)
	for i := 0; i < no; i++ {
		slot := r.Int()
		if r.Err() == nil && (slot < 0 || slot >= n) {
			r.Fail(fmt.Errorf("mem: snapshot LTLB order slot %d outside %d entries", slot, n))
			break
		}
		t.order = append(t.order, slot)
	}
	if r.Err() == nil && n > capacity {
		r.Fail(fmt.Errorf("mem: snapshot LTLB has %d entries, capacity %d", n, capacity))
	}
	t.Hits = r.U64()
	t.Misses = r.U64()
	return t
}

// Clone returns an independent LTLB with t's entries, order, and
// statistics.
func (t *LTLB) Clone() *LTLB {
	return &LTLB{
		entries:  slices.Clone(t.entries),
		order:    slices.Clone(t.order),
		capacity: t.capacity,
		Hits:     t.Hits,
		Misses:   t.Misses,
	}
}

func encodeRequest(w *snap.Writer, q *Request) {
	w.U64(uint64(q.Kind))
	w.U64(q.Addr)
	w.U64(q.Data)
	w.Bool(q.DataPtr)
	w.U64(uint64(q.Pre))
	w.U64(uint64(q.Post))
	w.U64(q.Token)
}

func decodeRequest(r *snap.Reader) Request {
	q := Request{
		Kind:    Kind(r.U64()),
		Addr:    r.U64(),
		Data:    r.U64(),
		DataPtr: r.Bool(),
		Pre:     isa.SyncCond(r.U64()),
		Post:    isa.SyncCond(r.U64()),
		Token:   r.U64(),
	}
	if r.Err() == nil && (q.Kind > ReqWritePhys || q.Pre > isa.SyncEmpty || q.Post > isa.SyncEmpty) {
		r.Fail(fmt.Errorf("mem: bad snapshot request kind=%d pre=%d post=%d", q.Kind, q.Pre, q.Post))
	}
	return q
}

// EncodeState writes the memory system's own timed state (the SDRAM,
// cache, and LTLB follow): in-flight responses in submission order, the
// per-bank and SDRAM busy windows, and the fault counters.
func (m *System) EncodeState(w *snap.Writer) {
	w.Len(len(m.inflight))
	for i := range m.inflight {
		resp := &m.inflight[i]
		encodeRequest(w, &resp.Req)
		w.U64(resp.Data)
		w.Bool(resp.DataPtr)
		w.U64(uint64(resp.Fault))
		w.I64(resp.ReadyAt)
	}
	for _, b := range m.bankFreeAt {
		w.I64(b)
	}
	w.I64(m.sdramFree)
	w.U64(m.LTLBFaults)
	w.U64(m.StatusFaults)
	w.U64(m.SyncFaults)
	m.SDRAM.EncodeState(w)
	m.Cache.EncodeState(w)
	m.LTLB.EncodeState(w)
}

// DecodeSystemState reads a memory system written by EncodeState into a
// new system built from cfg (assembled from the decoded parts; NewSystem
// would build an SDRAM, a cache and an LTLB only for them to be
// replaced), with no I/O-bus device, like a Clone. The earliest-deadline
// cache is recomputed from the decoded in-flight set.
func DecodeSystemState(r *snap.Reader, cfg Config) *System {
	m := &System{cfg: cfg, earliest: NoEvent}
	n := r.Len(maxInflight)
	for i := 0; i < n; i++ {
		resp := Response{
			Req:     decodeRequest(r),
			Data:    r.U64(),
			DataPtr: r.Bool(),
			Fault:   Fault(r.U64()),
			ReadyAt: r.I64(),
		}
		if r.Err() == nil && resp.Fault > FaultSync {
			r.Fail(fmt.Errorf("mem: bad snapshot fault %d", resp.Fault))
			break
		}
		m.inflight = append(m.inflight, resp)
		if resp.ReadyAt < m.earliest {
			m.earliest = resp.ReadyAt
		}
	}
	for i := range m.bankFreeAt {
		m.bankFreeAt[i] = r.I64()
	}
	m.sdramFree = r.I64()
	m.LTLBFaults = r.U64()
	m.StatusFaults = r.U64()
	m.SyncFaults = r.U64()
	m.SDRAM = DecodeSDRAMState(r, cfg.SDRAM)
	m.Cache = DecodeCacheState(r, cfg.Cache)
	m.LTLB = DecodeLTLBState(r, cfg.LTLBEntries)
	return m
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
