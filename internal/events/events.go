// Package events defines the hardware event records of the M-Machine's
// asynchronous exception mechanism (Section 3.3). Exceptions detected
// outside the cluster — LTLB misses, block status faults, and memory
// synchronizing faults — generate an event record identifying the faulting
// operation and its operands, and place it in a hardware event queue. A
// dedicated H-Thread of the event V-Thread processes the records to
// complete the faulting operations without stopping the issuing thread.
package events

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Type discriminates event records.
type Type uint8

const (
	LTLBMiss Type = iota + 1
	BlockStatus
	SyncFault
)

func (t Type) String() string {
	switch t {
	case LTLBMiss:
		return "ltlb-miss"
	case BlockStatus:
		return "block-status"
	case SyncFault:
		return "sync-fault"
	}
	return "?"
}

// RecordWords is the size of an event record: the hardware formats and
// enqueues a fixed 4-word record (type/op word, faulting address, write
// data, destination register descriptor).
const RecordWords = 4

// Record identifies a faulting memory operation precisely enough for the
// software handler to complete it ("the faulting operation and its operands
// are specifically identified in the event record").
type Record struct {
	Type    Type
	Kind    mem.Kind     // read or write
	Pre     isa.SyncCond // synchronizing pre/postconditions of the op
	Post    isa.SyncCond
	VAddr   uint64   // faulting virtual address
	Data    isa.Word // store data (writes)
	RegDesc uint64   // destination register descriptor (reads)
}

// Encode packs the record into its 4-word queue representation.
func (r Record) Encode() [RecordWords]isa.Word {
	w0 := uint64(r.Type) |
		uint64(r.Kind)<<4 |
		uint64(r.Pre)<<8 |
		uint64(r.Post)<<10
	if r.Data.Ptr {
		w0 |= 1 << 12
	}
	return [RecordWords]isa.Word{
		{Bits: w0},
		{Bits: r.VAddr},
		{Bits: r.Data.Bits},
		{Bits: r.RegDesc},
	}
}

// Decode unpacks a 4-word record.
func Decode(w [RecordWords]isa.Word) Record {
	w0 := w[0].Bits
	return Record{
		Type:    Type(w0 & 0xF),
		Kind:    mem.Kind(w0 >> 4 & 0xF),
		Pre:     isa.SyncCond(w0 >> 8 & 3),
		Post:    isa.SyncCond(w0 >> 10 & 3),
		Data:    isa.Word{Bits: w[2].Bits, Ptr: w0>>12&1 != 0},
		VAddr:   w[1].Bits,
		RegDesc: w[3].Bits,
	}
}

// Request reconstructs the memory request a handler re-injects with MRETRY.
func (r Record) Request() mem.Request {
	return mem.Request{
		Kind:    r.Kind,
		Addr:    r.VAddr,
		Data:    r.Data.Bits,
		DataPtr: r.Data.Ptr,
		Pre:     r.Pre,
		Post:    r.Post,
	}
}

// NoEvent is the NextEvent sentinel meaning "this component will never act
// again without external input" (see DESIGN.md, "The NextEvent contract").
const NoEvent = int64(math.MaxInt64)

// Queue is a hardware event queue: a bounded FIFO of words. Each record
// occupies RecordWords entries; the handler H-Thread pops them one word at
// a time through the register-mapped evq register, which stalls while the
// queue is empty.
//
// Pop advances a head index instead of re-slicing, and the backing array is
// reset for reuse whenever the queue drains, so the steady-state hot path
// never allocates.
type Queue struct {
	words []isa.Word
	head  int
	cap   int `snap:"derived,fixed at construction; decode takes it from the chip configuration"`

	Enqueued, Dropped uint64
	HighWater         int
}

// NewQueue creates a queue bounded to capacity words. The paper sizes the
// queue so "every outstanding instruction" can fault; capacity 0 means
// unbounded.
func NewQueue(capacity int) *Queue { return &Queue{cap: capacity} }

// Push enqueues a record; it reports false if the queue would overflow.
func (q *Queue) Push(r Record) bool {
	w := r.Encode()
	if q.cap > 0 && q.Len()+RecordWords > q.cap {
		q.Dropped++
		return false
	}
	q.words = append(q.words, w[:]...)
	q.Enqueued++
	if q.Len() > q.HighWater {
		q.HighWater = q.Len()
	}
	return true
}

// PushWords enqueues raw words (used for message bodies when a queue serves
// as a message queue). The words are copied, so the caller may reuse ws.
func (q *Queue) PushWords(ws []isa.Word) bool {
	if q.cap > 0 && q.Len()+len(ws) > q.cap {
		q.Dropped++
		return false
	}
	q.words = append(q.words, ws...)
	if q.Len() > q.HighWater {
		q.HighWater = q.Len()
	}
	return true
}

// Empty reports whether no words are waiting.
func (q *Queue) Empty() bool { return q.Len() == 0 }

// Len returns the number of words waiting.
func (q *Queue) Len() int { return len(q.words) - q.head }

// Pop dequeues one word; it panics if the queue is empty (the issue stage
// must check Empty first — an evq read "will not issue if the queue is
// empty").
func (q *Queue) Pop() isa.Word {
	if q.Empty() {
		panic("events: pop from empty queue")
	}
	w := q.words[q.head]
	q.head++
	if q.head == len(q.words) {
		q.words, q.head = q.words[:0], 0
	} else if q.head >= 64 && q.head*2 >= len(q.words) {
		// Compact once the dead prefix dominates, so a queue that hovers
		// non-empty for a long run keeps memory O(live words) rather than
		// retaining everything pushed since its last full drain.
		n := copy(q.words, q.words[q.head:])
		q.words, q.head = q.words[:n], 0
	}
	return w
}

// NextEvent implements the engine's NextEvent contract for a passive queue:
// a non-empty queue can be consumed now; an empty one never acts on its
// own. Note the chip's wake computation does not consult queues — a
// consumable queue implies a handler thread the issue scan already
// watches — so this exists for the contract's completeness (components a
// future scheduler might poll directly), not for the chip hot path.
func (q *Queue) NextEvent(now int64) int64 {
	if q.Empty() {
		return NoEvent
	}
	return now
}

func (r Record) String() string {
	return fmt.Sprintf("event{%s %s addr=%#x}", r.Type, r.Kind, r.VAddr)
}
