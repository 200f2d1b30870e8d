package mem

// This file implements the two-level local translation structure of
// Section 2 and Section 4.3: the local page table (LPT) resident in physical
// memory, and the local translation lookaside buffer (LTLB) that caches LPT
// entries. Each entry carries, besides the virtual-to-physical mapping,
// 2 status bits for each of the 64 blocks in the page ("These block status
// bits are used to provide fine grained control over 8 word blocks").

// BlockStatus is the state encoded by a block's 2 status bits (Section 4.3).
type BlockStatus uint8

const (
	BSInvalid   BlockStatus = iota // may not be read, written, or cached
	BSReadOnly                     // may be read, not written
	BSReadWrite                    // may be read or written
	BSDirty                        // read/write, written since copied here
)

func (b BlockStatus) String() string {
	switch b {
	case BSInvalid:
		return "INVALID"
	case BSReadOnly:
		return "READ-ONLY"
	case BSReadWrite:
		return "READ/WRITE"
	case BSDirty:
		return "DIRTY"
	}
	return "?"
}

// Readable reports whether a block in this state may be read.
func (b BlockStatus) Readable() bool { return b != BSInvalid }

// Writable reports whether a block in this state may be written.
func (b BlockStatus) Writable() bool { return b == BSReadWrite || b == BSDirty }

// PTE is a decoded page-table / LTLB entry. Its in-memory form is 4 words:
//
//	w0: vpn<<1 | valid
//	w1: ppn (physical page number)
//	w2: block status bits for blocks 0..31  (2 bits each)
//	w3: block status bits for blocks 32..63
type PTE struct {
	VPN    uint64
	PPN    uint64
	Valid  bool
	Status [2]uint64
}

// PTEWords is the size of an LPT entry in memory words.
const PTEWords = 4

// Encode packs the entry into its 4-word memory representation.
func (e *PTE) Encode() [PTEWords]uint64 {
	var w [PTEWords]uint64
	w[0] = e.VPN << 1
	if e.Valid {
		w[0] |= 1
	}
	w[1] = e.PPN
	w[2] = e.Status[0]
	w[3] = e.Status[1]
	return w
}

// DecodePTE unpacks a 4-word entry.
func DecodePTE(w [PTEWords]uint64) PTE {
	return PTE{
		VPN:    w[0] >> 1,
		Valid:  w[0]&1 != 0,
		PPN:    w[1],
		Status: [2]uint64{w[2], w[3]},
	}
}

// Block returns the status of block b (0..63) in the page.
func (e *PTE) Block(b int) BlockStatus {
	return BlockStatus(e.Status[b/32] >> ((b % 32) * 2) & 3)
}

// SetBlock updates the status of block b.
func (e *PTE) SetBlock(b int, s BlockStatus) {
	i, sh := b/32, uint((b%32)*2)
	e.Status[i] = e.Status[i]&^(3<<sh) | uint64(s)<<sh
}

// SetAllBlocks sets every block in the page to status s.
func (e *PTE) SetAllBlocks(s BlockStatus) {
	var w uint64
	for i := 0; i < 32; i++ {
		w |= uint64(s) << (i * 2)
	}
	e.Status[0], e.Status[1] = w, w
}

// LPT describes the local page table's placement in physical memory. The
// table is direct-mapped on the low bits of the virtual page number; each
// slot holds one 4-word entry. The software LTLB-miss handler walks it with
// physical loads (Section 4.2: "Software accesses the local page table").
type LPT struct {
	Base    uint64 // physical word address of entry 0
	Entries uint64 // number of slots; power of two
}

// SlotOf returns the physical word address of the LPT slot for vpn.
func (t LPT) SlotOf(vpn uint64) uint64 {
	return t.Base + (vpn&(t.Entries-1))*PTEWords
}

// Lookup reads the slot for vpn from physical memory and reports whether it
// holds a valid entry for that page. This is the zero-cost functional view
// used by boot code and tests; the runtime's handler performs the same walk
// with timed LDP operations.
func (t LPT) Lookup(s *SDRAM, vpn uint64) (PTE, bool) {
	var w [PTEWords]uint64
	slot := t.SlotOf(vpn)
	for i := range w {
		w[i], _ = s.Read(slot + uint64(i))
	}
	e := DecodePTE(w)
	return e, e.Valid && e.VPN == vpn
}

// Insert writes the entry into its slot in physical memory.
func (t LPT) Insert(s *SDRAM, e PTE) {
	w := e.Encode()
	slot := t.SlotOf(e.VPN)
	for i := range w {
		s.Write(slot+uint64(i), w[i], false)
	}
}

// LTLB is the hardware cache of LPT entries. It is fully associative with
// FIFO replacement; a miss raises an asynchronous event handled by software
// in the event V-Thread (Section 3.3).
type LTLB struct {
	entries []PTE
	// head is the oldest occupied slot. Slots fill in index order and a
	// full LTLB replaces its oldest in place, so the FIFO is always the
	// ring head, head+1, ... mod len(entries) (head stays 0 until full).
	head     int
	capacity int `snap:"derived,fixed at construction; decode bounds-checks against it"`

	Hits, Misses uint64
}

// NewLTLB creates an LTLB with the given number of entries.
func NewLTLB(capacity int) *LTLB {
	return &LTLB{capacity: capacity}
}

// Lookup returns a pointer to the resident entry for vpn, or nil on miss.
// The returned pointer aliases LTLB state: hardware updates block status
// in place (write hits mark blocks dirty, Section 4.3).
func (t *LTLB) Lookup(vpn uint64) *PTE {
	for i := range t.entries {
		if t.entries[i].Valid && t.entries[i].VPN == vpn {
			t.Hits++
			return &t.entries[i]
		}
	}
	t.Misses++
	return nil
}

// Insert installs an entry, evicting the oldest if full. It returns the
// evicted entry (valid=false if none) so the memory system can write its
// status bits back to the LPT.
func (t *LTLB) Insert(e PTE) PTE {
	for i := range t.entries {
		if t.entries[i].Valid && t.entries[i].VPN == e.VPN {
			old := t.entries[i]
			t.entries[i] = e
			return old
		}
	}
	if len(t.entries) < t.capacity {
		t.entries = append(t.entries, e)
		return PTE{}
	}
	victim := t.head
	t.head = (victim + 1) % len(t.entries)
	old := t.entries[victim]
	t.entries[victim] = e
	return old
}

// Invalidate drops the entry for vpn if resident, returning it so status
// bits can be written back.
func (t *LTLB) Invalidate(vpn uint64) PTE {
	for i := range t.entries {
		if t.entries[i].Valid && t.entries[i].VPN == vpn {
			old := t.entries[i]
			t.entries[i].Valid = false
			return old
		}
	}
	return PTE{}
}

// Len returns the number of resident entries.
func (t *LTLB) Len() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].Valid {
			n++
		}
	}
	return n
}
