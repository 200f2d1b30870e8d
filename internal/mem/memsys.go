package mem

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// NoEvent is the NextEvent sentinel meaning "this component will never act
// again without external input" (see DESIGN.md, "The NextEvent contract").
const NoEvent = int64(math.MaxInt64)

// Kind discriminates memory requests submitted by the memory units.
type Kind uint8

const (
	ReqRead Kind = iota
	ReqWrite
	ReqReadPhys  // privileged LDP: physical address, bypasses LTLB/status
	ReqWritePhys // privileged STP
)

func (k Kind) String() string {
	switch k {
	case ReqRead:
		return "read"
	case ReqWrite:
		return "write"
	case ReqReadPhys:
		return "ldp"
	case ReqWritePhys:
		return "stp"
	}
	return "?"
}

// IsWrite reports whether the request stores data.
func (k Kind) IsWrite() bool { return k == ReqWrite || k == ReqWritePhys }

// Fault classifies request outcomes that require software intervention.
// These surface as asynchronous events (Section 3.3): "LTLB misses, block
// status faults, and memory synchronizing faults ... are handled
// asynchronously".
type Fault uint8

const (
	FaultNone Fault = iota
	FaultLTLBMiss
	FaultStatus
	FaultSync
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultLTLBMiss:
		return "ltlb-miss"
	case FaultStatus:
		return "block-status"
	case FaultSync:
		return "sync"
	}
	return "?"
}

// Request is one memory operation presented to a cache bank over the
// M-Switch.
type Request struct {
	Kind    Kind
	Addr    uint64 // virtual word address (physical for ReqReadPhys/WritePhys)
	Data    uint64
	DataPtr bool
	Pre     isa.SyncCond // synchronizing precondition (LDSY/STSY)
	Post    isa.SyncCond // synchronizing postcondition
	Token   uint64       // opaque routing token owned by the submitter
}

// Response reports a completed or faulted request.
type Response struct {
	Req     Request
	Data    uint64
	DataPtr bool
	Fault   Fault
	ReadyAt int64 // cycle at which the response is visible
}

// Config carries the memory system's timing parameters, calibrated to
// Table 1's local rows (read hit 3, write hit 2, miss read 13, miss write
// 19 with the default SDRAM row-hit latency).
type Config struct {
	SDRAM       SDRAMConfig
	Cache       CacheConfig
	LTLBEntries int
	LPT         LPT

	ReadHitLat    int64 // load hit: issue to register writeback (3)
	WriteHitLat   int64 // store hit: issue to completion (2)
	MissDetectLat int64 // cycles to detect a miss / raise an LTLB event (2)
	PhysAccessLat int64 // privileged LDP/STP latency (handlers "cache hit")
	LineLoadLat   int64 // extra cycles for a write miss to load the full line
}

// DefaultConfig returns the calibrated configuration.
func DefaultConfig() Config {
	return Config{
		SDRAM:         DefaultSDRAMConfig(),
		Cache:         DefaultCacheConfig(),
		LTLBEntries:   64,
		LPT:           LPT{Base: 1 << 18, Entries: 1024}, // 16 KW table at 256 KW
		ReadHitLat:    3,
		WriteHitLat:   2,
		MissDetectLat: 2,
		PhysAccessLat: 3,
		LineLoadLat:   7,
	}
}

// Device models a memory-mapped I/O device on the node's I/O bus
// (Section 2: "I/O devices may be connected either to an I/O bus available
// on each node, or to I/O nodes"). Devices respond to privileged physical
// accesses within their window and bypass the cache.
type Device interface {
	// DevWrite handles a store of w to device offset off.
	DevWrite(off uint64, w uint64)
	// DevRead handles a load from device offset off.
	DevRead(off uint64) uint64
}

// System is one node's complete memory system.
type System struct {
	cfg   Config `snap:"derived,fixed at construction; decode validates against it"`
	SDRAM *SDRAM
	Cache *Cache
	LTLB  *LTLB

	devBase  uint64 `snap:"derived,I/O-bus attachment, made by the owning chip"`
	devWords uint64 `snap:"derived,I/O-bus attachment, made by the owning chip"`
	device   Device `snap:"derived,I/O-bus attachment, made by the owning chip"`

	inflight []Response
	// earliest caches the minimum ReadyAt across inflight, so idle banks
	// answer Step and NextEvent without scanning anything.
	earliest int64 `snap:"derived,recomputed from decoded inflight"`
	// ready is the reusable buffer returned by Step; the caller consumes it
	// before the next Step call.
	ready []Response `snap:"derived,per-Step scratch"`
	// bankFreeAt enforces one new request per bank per cycle (the M-Switch
	// supports four transfers per cycle, one per bank).
	bankFreeAt [4]int64
	sdramFree  int64

	// Stats.
	LTLBFaults, StatusFaults, SyncFaults uint64
}

// NewSystem builds a memory system from cfg.
func NewSystem(cfg Config) *System {
	return &System{
		cfg:      cfg,
		SDRAM:    NewSDRAM(cfg.SDRAM),
		Cache:    NewCache(cfg.Cache),
		LTLB:     NewLTLB(cfg.LTLBEntries),
		earliest: NoEvent,
	}
}

// Config returns the system's configuration.
func (m *System) Config() Config { return m.cfg }

// CanAccept reports whether the bank serving addr can accept a new request
// at the given cycle.
func (m *System) CanAccept(now int64, addr uint64) bool {
	return m.bankFreeAt[BankOf(addr)] <= now
}

// Submit presents a request to the memory system at cycle now. It must only
// be called when CanAccept is true; the bank is then busy for one cycle.
// State changes are applied immediately; the response becomes visible at
// its ReadyAt cycle via Step.
func (m *System) Submit(now int64, req Request) {
	bank := BankOf(req.Addr)
	if m.bankFreeAt[bank] > now {
		panic(fmt.Sprintf("mem: bank %d busy at cycle %d", bank, now))
	}
	m.bankFreeAt[bank] = now + 1
	resp := m.execute(now, req)
	m.inflight = append(m.inflight, resp)
	if resp.ReadyAt < m.earliest {
		m.earliest = resp.ReadyAt
	}
}

// Step returns the responses that become visible at cycle now, in
// deterministic (ReadyAt, submission) order. The returned slice is reused
// by the next Step call, so the caller must consume it first. Idle cycles
// (nothing in flight, or nothing due yet) return nil without scanning.
func (m *System) Step(now int64) []Response {
	if len(m.inflight) == 0 || now < m.earliest {
		return nil
	}
	m.ready = m.ready[:0]
	rest := m.inflight[:0]
	next := NoEvent
	for _, r := range m.inflight {
		if r.ReadyAt <= now {
			m.ready = append(m.ready, r)
		} else {
			rest = append(rest, r)
			if r.ReadyAt < next {
				next = r.ReadyAt
			}
		}
	}
	m.inflight = rest
	m.earliest = next
	// Stable insertion sort by ReadyAt: responses are few and nearly
	// ordered, and equal deadlines must keep submission order.
	for i := 1; i < len(m.ready); i++ {
		for j := i; j > 0 && m.ready[j].ReadyAt < m.ready[j-1].ReadyAt; j-- {
			m.ready[j], m.ready[j-1] = m.ready[j-1], m.ready[j]
		}
	}
	return m.ready
}

// NextEvent reports the earliest cycle >= now at which a response becomes
// visible, or NoEvent if nothing is in flight.
func (m *System) NextEvent(now int64) int64 {
	if len(m.inflight) == 0 {
		return NoEvent
	}
	if m.earliest < now {
		return now
	}
	return m.earliest
}

// Pending reports how many requests are in flight.
func (m *System) Pending() int { return len(m.inflight) }

func (m *System) execute(now int64, req Request) Response {
	resp := Response{Req: req}
	switch req.Kind {
	case ReqReadPhys:
		if m.device != nil && req.Addr >= m.devBase && req.Addr < m.devBase+m.devWords {
			resp.Data = m.device.DevRead(req.Addr - m.devBase)
			resp.ReadyAt = now + m.cfg.PhysAccessLat
			return resp
		}
		resp.Data, resp.DataPtr = m.SDRAM.Read(req.Addr)
		resp.ReadyAt = now + m.cfg.PhysAccessLat
		return resp
	case ReqWritePhys:
		if m.device != nil && req.Addr >= m.devBase && req.Addr < m.devBase+m.devWords {
			m.device.DevWrite(req.Addr-m.devBase, req.Data)
			resp.ReadyAt = now + m.cfg.PhysAccessLat
			return resp
		}
		// Keep any cached copy coherent: privileged stores are used by the
		// block-fetch handler to deposit remote data (Section 4.3).
		if ln, hit := m.Cache.lineFor(req.Addr); hit && ln.physBase == req.Addr&^uint64(BlockWords-1) {
			ln.words[req.Addr%BlockWords] = req.Data
			ln.ptrs[req.Addr%BlockWords] = req.DataPtr
		}
		m.SDRAM.Write(req.Addr, req.Data, req.DataPtr)
		resp.ReadyAt = now + m.cfg.PhysAccessLat
		return resp
	}

	// Virtually addressed cache lookup first: the cache is virtually tagged,
	// so hits need no translation (Section 2).
	ln, hit := m.Cache.Lookup(req.Addr)
	if hit {
		return m.finishAccess(now, req, ln, true)
	}

	// Miss: consult the LTLB.
	vpn := req.Addr / PageWords
	pte := m.LTLB.Lookup(vpn)
	if pte == nil {
		m.LTLBFaults++
		resp.Fault = FaultLTLBMiss
		resp.ReadyAt = now + m.cfg.MissDetectLat
		return resp
	}

	// Block status check (Section 4.3): hardware checks the 2 status bits
	// for the referenced block; disallowed accesses raise a block status
	// fault handled by software.
	blk := int(req.Addr % PageWords / BlockWords)
	st := pte.Block(blk)
	if (req.Kind.IsWrite() && !st.Writable()) || (!req.Kind.IsWrite() && !st.Readable()) {
		m.StatusFaults++
		resp.Fault = FaultStatus
		resp.ReadyAt = now + m.cfg.MissDetectLat
		return resp
	}

	// Fill from SDRAM.
	physBase := pte.PPN*PageWords + req.Addr%PageWords&^uint64(BlockWords-1)
	start := now
	if m.sdramFree > start {
		start = m.sdramFree
	}
	lat := m.SDRAM.AccessLatency(physBase)
	m.sdramFree = start + lat
	victim := m.Cache.Fill(m.SDRAM, req.Addr, physBase, st.Writable())
	m.Cache.WriteBack(m.SDRAM, victim)
	ln, _ = m.Cache.lineFor(req.Addr)

	resp = m.finishAccess(now, req, ln, false)
	fillDone := start + lat - now // extra cycles beyond a hit
	resp.ReadyAt += fillDone
	if req.Kind.IsWrite() {
		// A write completes "when the line containing the data has been
		// fully loaded into the cache" (Section 4.2): add the line load.
		resp.ReadyAt += m.cfg.LineLoadLat
	}
	if resp.Fault == FaultNone && req.Kind.IsWrite() {
		m.markDirty(pte, blk)
	}
	return resp
}

// finishAccess performs the actual word access against a resident line and
// computes the hit-path latency; the caller adjusts ReadyAt for fills.
func (m *System) finishAccess(now int64, req Request, ln *cacheLine, hit bool) Response {
	resp := Response{Req: req}
	off := req.Addr % BlockWords
	pa := ln.physBase + off

	// Synchronization bit handling (Section 2: the only atomic
	// read-modify-write operations).
	if req.Pre != isa.SyncAny {
		bit := m.SDRAM.SyncBit(pa)
		want := req.Pre == isa.SyncFull
		if bit != want {
			m.SyncFaults++
			resp.Fault = FaultSync
			resp.ReadyAt = now + m.cfg.MissDetectLat
			return resp
		}
	}

	if req.Kind.IsWrite() {
		if !ln.writable {
			// Write hit on a block filled under READ-ONLY status.
			m.StatusFaults++
			resp.Fault = FaultStatus
			resp.ReadyAt = now + m.cfg.MissDetectLat
			return resp
		}
		ln.words[off] = req.Data
		ln.ptrs[off] = req.DataPtr
		ln.dirty = true
		resp.ReadyAt = now + m.cfg.WriteHitLat
		if hit {
			// Writes mark the block dirty "automatically" (Section 4.3).
			if pte := m.LTLB.Lookup(req.Addr / PageWords); pte != nil {
				m.markDirty(pte, int(req.Addr%PageWords/BlockWords))
			}
		}
	} else {
		resp.Data = ln.words[off]
		resp.DataPtr = ln.ptrs[off]
		resp.ReadyAt = now + m.cfg.ReadHitLat
	}

	if req.Post != isa.SyncAny {
		m.SDRAM.SetSyncBit(pa, req.Post == isa.SyncFull)
	}
	return resp
}

// markDirty upgrades a block's status to DIRTY in both the LTLB entry and
// the in-memory LPT entry.
func (m *System) markDirty(pte *PTE, blk int) {
	if pte.Block(blk) == BSDirty {
		return
	}
	pte.SetBlock(blk, BSDirty)
	m.cfg.LPT.Insert(m.SDRAM, *pte)
}

// --- Privileged operations used by the runtime's handlers ---

// TLBInstall decodes the 4-word entry and inserts it into the LTLB (the
// TLBW operation), unless it maps a page outside SDRAM (false). The evicted
// entry's status bits are written back to the LPT.
func (m *System) TLBInstall(words [PTEWords]uint64) bool {
	e := DecodePTE(words)
	if !m.inSDRAM(e) {
		return false
	}
	victim := m.LTLB.Insert(e)
	if victim.Valid {
		m.cfg.LPT.Insert(m.SDRAM, victim)
	}
	return true
}

// inSDRAM reports whether e maps nothing or a page SDRAM holds.
func (m *System) inSDRAM(e PTE) bool { return !e.Valid || e.PPN < m.SDRAM.Size()/PageWords }

// TLBInvalidate drops the LTLB entry for vpn, writing its status back.
func (m *System) TLBInvalidate(vpn uint64) {
	victim := m.LTLB.Invalidate(vpn)
	if victim.Valid {
		m.cfg.LPT.Insert(m.SDRAM, victim)
	}
}

// SetBlockStatus updates the status bits for the block containing vaddr in
// the LPT and any resident LTLB entry (the BSW operation), invalidating the
// cached copy of the block so the next access observes the new state.
func (m *System) SetBlockStatus(vaddr uint64, s BlockStatus) {
	vpn := vaddr / PageWords
	blk := int(vaddr % PageWords / BlockWords)
	if pte := m.LTLB.Lookup(vpn); pte != nil {
		pte.SetBlock(blk, s)
		m.cfg.LPT.Insert(m.SDRAM, *pte)
	} else if pte, ok := m.cfg.LPT.Lookup(m.SDRAM, vpn); ok {
		pte.SetBlock(blk, s)
		m.cfg.LPT.Insert(m.SDRAM, pte)
	}
	m.Cache.InvalidateBlock(m.SDRAM, vaddr)
}

// BlockStatusOf reads the current status of the block containing vaddr (the
// BSR operation). Missing translations read as INVALID.
func (m *System) BlockStatusOf(vaddr uint64) BlockStatus {
	vpn := vaddr / PageWords
	blk := int(vaddr % PageWords / BlockWords)
	if pte := m.LTLB.Lookup(vpn); pte != nil {
		return pte.Block(blk)
	}
	if pte, ok := m.cfg.LPT.Lookup(m.SDRAM, vpn); ok {
		return pte.Block(blk)
	}
	return BSInvalid
}

// AttachDevice maps a device onto the I/O bus at physical word address base
// for the given window size.
func (m *System) AttachDevice(base, words uint64, d Device) {
	m.devBase, m.devWords, m.device = base, words, d
}

// Physical reports whether a privileged LDP/STP may address pa: a word of
// SDRAM or of the attached device's window.
func (m *System) Physical(pa uint64) bool {
	return pa < m.SDRAM.Size() || m.device != nil && pa >= m.devBase && pa < m.devBase+m.devWords
}

// --- Zero-cost boot/test accessors (not part of the timed model) ---

// MapPage creates a translation vpn -> ppn with every block in status s,
// writing the LPT and priming the LTLB.
func (m *System) MapPage(vpn, ppn uint64, s BlockStatus) {
	e := PTE{VPN: vpn, PPN: ppn, Valid: true}
	e.SetAllBlocks(s)
	m.cfg.LPT.Insert(m.SDRAM, e)
	if victim := m.LTLB.Insert(e); victim.Valid {
		m.cfg.LPT.Insert(m.SDRAM, victim)
	}
}

// MapPageLPTOnly creates the translation in the LPT without priming the
// LTLB, so the first access takes an LTLB miss (used to stage Table 1).
func (m *System) MapPageLPTOnly(vpn, ppn uint64, s BlockStatus) {
	e := PTE{VPN: vpn, PPN: ppn, Valid: true}
	e.SetAllBlocks(s)
	m.cfg.LPT.Insert(m.SDRAM, e)
}

// Translate resolves a virtual address through the LTLB/LPT without timing
// side effects; ok is false if no mapping exists.
func (m *System) Translate(vaddr uint64) (pa uint64, ok bool) {
	vpn := vaddr / PageWords
	var e PTE
	if p := m.LTLB.Lookup(vpn); p != nil {
		e = *p
	} else if p2, found := m.cfg.LPT.Lookup(m.SDRAM, vpn); found {
		e = p2
	} else {
		return 0, false
	}
	return e.PPN*PageWords + vaddr%PageWords, true
}

// PokeVirt writes a word at a virtual address, bypassing timing. The cache
// is kept coherent.
func (m *System) PokeVirt(vaddr, w uint64, ptr bool) error {
	pa, ok := m.Translate(vaddr)
	if !ok {
		return fmt.Errorf("mem: no translation for %#x", vaddr)
	}
	if ln, hit := m.Cache.lineFor(vaddr); hit {
		ln.words[vaddr%BlockWords] = w
		ln.ptrs[vaddr%BlockWords] = ptr
	}
	m.SDRAM.Write(pa, w, ptr)
	return nil
}

// PeekVirt reads a word at a virtual address, bypassing timing.
func (m *System) PeekVirt(vaddr uint64) (w uint64, ptr bool, err error) {
	if ln, hit := m.Cache.lineFor(vaddr); hit {
		return ln.words[vaddr%BlockWords], ln.ptrs[vaddr%BlockWords], nil
	}
	pa, ok := m.Translate(vaddr)
	if !ok {
		return 0, false, fmt.Errorf("mem: no translation for %#x", vaddr)
	}
	w, ptr = m.SDRAM.Read(pa)
	return w, ptr, nil
}

// SyncVirt reads the synchronization bit for a virtual address.
func (m *System) SyncVirt(vaddr uint64) (bool, error) {
	pa, ok := m.Translate(vaddr)
	if !ok {
		return false, fmt.Errorf("mem: no translation for %#x", vaddr)
	}
	return m.SDRAM.SyncBit(pa), nil
}
