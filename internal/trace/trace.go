// Package trace records simulation events with cycle timestamps so the
// remote access timelines of Figure 9 can be reconstructed and printed.
//
// A record is one pointer-free 32-byte value — a kind and fixed integer
// arguments — from the chip that emits it to the reader that prints it:
// chips, stepped one at a time in node-index order, append records to the
// installed Recorder, and the distributed engine ships them as four words
// each. The name and detail strings of a timeline line are produced only
// when a reader asks for them.
package trace

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/snap"
)

// Kind names what a record describes.
type Kind uint8

// The record kinds, with the arguments each one carries.
const (
	MemIssue      Kind = iota // a user-slot load/store issues: Sub = mem.Kind, Arg = address
	MemComplete               // a memory request completes: Sub = mem.Kind, Arg = address
	RetryComplete             // an MRETRY'd load writes its register: Arg = address
	MRetry                    // a handler replays a faulted request: Arg = address
	TLBW                      // a handler installs an LTLB entry: Arg = virtual page number
	RSTW                      // a handler writes a thread register: Arg = isa.RegDesc word
	FaultEvent                // a memory fault enqueues an event record (see Fault)
	SendPri0                  // a SEND launches: Arg = DIP, Sub = body length, X/Y/Z = destination
	SendPri1                  // a SENDN launches: Arg = DIP, Sub = body length, Peer = destination node index
	MsgRecv                   // a message enters its queue: Arg = DIP, Sub = priority, X/Y/Z = source
	MsgReject                 // a message is returned to its sender: as MsgRecv
	Resend                    // a returned message is re-injected: Arg = DIP, X/Y/Z = destination
	ProtFault                 // a protection fault: Arg indexes the holding Recorder's Text
	numKinds
)

var kindNames = [numKinds]string{
	MemIssue: "mem-issue", MemComplete: "mem-complete", RetryComplete: "retry-complete",
	MRetry: "mretry", TLBW: "tlbw", RSTW: "rstw", FaultEvent: "event",
	SendPri0: "send", SendPri1: "send", MsgRecv: "msg-recv", MsgReject: "msg-reject",
	Resend: "resend", ProtFault: "prot-fault",
}

// MaxCoord is the largest mesh coordinate a record's peer fields hold.
const MaxCoord = 1<<15 - 1

// Event is one timestamped simulator occurrence. It holds no pointer, so a
// buffer of events grows without clearing and is never scanned by the
// collector. Which fields are meaningful depends on Kind; the rest are zero.
type Event struct {
	Cycle   int64
	Arg     uint64 // address, page number, register descriptor, DIP or Text index
	Node    int32
	Peer    int32 // destination node index (SendPri1)
	X, Y, Z int16 // peer mesh coordinate
	Kind    Kind
	Sub     uint8 // access kind, message priority or body length
}

// Fault builds the FaultEvent record of an asynchronous memory fault.
func Fault(t events.Type, access mem.Kind, addr uint64) Event {
	return Event{Kind: FaultEvent, Sub: uint8(t)<<4 | uint8(access), Arg: addr}
}

// WithPeer returns e with its peer coordinate set to c.
func (e Event) WithPeer(c noc.Coord) Event {
	e.X, e.Y, e.Z = int16(c.X), int16(c.Y), int16(c.Z)
	return e
}

// Name is the record's event name as timelines print it.
func (e Event) Name() string {
	if e.Kind < numKinds {
		return kindNames[e.Kind]
	}
	return "?"
}

func (e Event) peer() noc.Coord { return noc.Coord{X: int(e.X), Y: int(e.Y), Z: int(e.Z)} }

// State walks the recorder's contents: every record as four fixed-width
// words, then the free-text table. A decoder replaces r's contents,
// bounding counts by maxEvents and every string by maxText bytes; an
// unknown kind or a ProtFault whose index is outside the decoded table
// fails it.
func (r *Recorder) State(c *snap.Codec, maxEvents, maxText int) {
	if c.Reading() {
		r.Reset()
	}
	n := c.Len(len(r.Events), maxEvents)
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.Reading() {
			r.Events = append(r.Events, Event{})
		}
		e := &r.Events[i]
		np := uint64(uint32(e.Node)) | uint64(uint32(e.Peer))<<32
		rest := uint64(uint16(e.X)) | uint64(uint16(e.Y))<<16 | uint64(uint16(e.Z))<<32 |
			uint64(e.Kind)<<48 | uint64(e.Sub)<<56
		c.I64(&e.Cycle)
		c.U64(&e.Arg)
		c.U64(&np)
		c.U64(&rest)
		if c.Reading() {
			e.Node, e.Peer = int32(uint32(np)), int32(uint32(np>>32))
			e.X, e.Y, e.Z = int16(uint16(rest)), int16(uint16(rest>>16)), int16(uint16(rest>>32))
			e.Kind, e.Sub = Kind(rest>>48), uint8(rest>>56)
			if e.Kind >= numKinds {
				c.Fail(fmt.Errorf("trace: unknown record kind %d", e.Kind))
				return
			}
		}
	}
	n = c.Len(len(r.Text), maxEvents)
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.Reading() {
			r.Text = append(r.Text, "")
		}
		c.String(&r.Text[i], maxText)
	}
	if !c.Reading() {
		return
	}
	for _, e := range r.Events {
		if e.Kind == ProtFault && e.Arg >= uint64(len(r.Text)) {
			c.Fail(fmt.Errorf("trace: text index %d outside a table of %d", e.Arg, len(r.Text)))
			return
		}
	}
}

// Recorder accumulates events; install it with machine.SetTrace. Text is
// the side table of the rare free-text details: a ProtFault record's Arg
// indexes the Text of the Recorder that holds the record.
type Recorder struct {
	Events []Event
	Text   []string
}

// Reset clears recorded events.
func (r *Recorder) Reset() {
	r.Events = r.Events[:0]
	clear(r.Text)
	r.Text = r.Text[:0]
}

// AddText stores a free-text detail and returns the index a ProtFault
// record appended to r must carry in Arg.
func (r *Recorder) AddText(s string) uint64 {
	r.Text = append(r.Text, s)
	return uint64(len(r.Text) - 1)
}

// Add appends e. The log at least doubles when it must grow (append
// alone grows a long slice by a quarter), so a run that records n events
// copies O(n) of them in all.
func (r *Recorder) Add(e Event) {
	if len(r.Events) == cap(r.Events) {
		r.Events = slices.Grow(r.Events, len(r.Events)+1)
	}
	r.Events = append(r.Events, e)
}

// Drain moves src's records to the end of r, in order, and empties src.
// The log at least doubles when it must grow, so a run that records n
// events copies O(n) of them in all.
func (r *Recorder) Drain(src *Recorder) {
	base := len(r.Events)
	if need := base + len(src.Events); need > cap(r.Events) {
		r.Events = slices.Grow(r.Events, max(need, 2*cap(r.Events))-base)
	}
	r.Events = append(r.Events, src.Events...)
	if off := uint64(len(r.Text)); off > 0 && len(src.Text) > 0 {
		// src's ProtFault records index src.Text, which lands at r.Text[off:].
		for i := base; i < len(r.Events); i++ {
			if r.Events[i].Kind == ProtFault {
				r.Events[i].Arg += off
			}
		}
	}
	r.Text = append(r.Text, src.Text...)
	src.Reset()
}

// Detail renders the arguments of a record held by r as timelines print
// them.
func (r *Recorder) Detail(e Event) string {
	switch e.Kind {
	case MemIssue, MemComplete:
		return fmt.Sprintf("%s addr=%#x", mem.Kind(e.Sub), e.Arg)
	case RetryComplete, MRetry:
		return fmt.Sprintf("addr=%#x", e.Arg)
	case TLBW:
		return fmt.Sprintf("vpn=%d", e.Arg)
	case RSTW:
		vt, cl, reg := isa.UnpackRegDesc(e.Arg)
		return fmt.Sprintf("vt=%d cl=%d %s", vt, cl, reg)
	case FaultEvent:
		return events.Record{Type: events.Type(e.Sub >> 4), Kind: mem.Kind(e.Sub & 0xF), VAddr: e.Arg}.String()
	case SendPri0:
		return fmt.Sprintf("pri0 to %v dip=%d len=%d", e.peer(), e.Arg, e.Sub)
	case SendPri1:
		return fmt.Sprintf("pri1 to node %d dip=%d len=%d", e.Peer, e.Arg, e.Sub)
	case MsgRecv, MsgReject:
		return fmt.Sprintf("pri%d dip=%d from %v", e.Sub, e.Arg, e.peer())
	case Resend:
		return fmt.Sprintf("dip=%d to %v", e.Arg, e.peer())
	case ProtFault:
		if e.Arg < uint64(len(r.Text)) {
			return r.Text[e.Arg]
		}
	}
	return "?"
}

// Filter returns events whose name is in names (all if empty), at or after
// cycle from.
func (r *Recorder) Filter(from int64, names ...string) []Event {
	var want [numKinds]bool
	for k := range want {
		want[k] = len(names) == 0
		for _, n := range names {
			if kindNames[k] == n {
				want[k] = true
			}
		}
	}
	var out []Event
	for _, e := range r.Events {
		if e.Cycle >= from && e.Kind < numKinds && want[e.Kind] {
			out = append(out, e)
		}
	}
	return out
}

// First returns the first event with the given name at or after cycle from,
// and whether one exists.
func (r *Recorder) First(from int64, name string) (Event, bool) {
	return r.FirstMatch(from, func(e Event) bool { return e.Name() == name })
}

// FirstMatch returns the first event at or after from for which pred holds.
func (r *Recorder) FirstMatch(from int64, pred func(Event) bool) (Event, bool) {
	for _, e := range r.Events {
		if e.Cycle >= from && pred(e) {
			return e, true
		}
	}
	return Event{}, false
}

// Timeline renders events — records held by r — as a two-column per-node
// timeline normalized to cycle zero at the first event, in the style of
// Figure 9.
func (r *Recorder) Timeline(events []Event, nodes ...int) string {
	if len(events) == 0 {
		return "(no events)\n"
	}
	base := events[0].Cycle
	var b strings.Builder
	fmt.Fprintf(&b, "%8s  %s\n", "cycle", "event")
	for _, e := range events {
		keep := len(nodes) == 0
		for _, n := range nodes {
			if int(e.Node) == n {
				keep = true
			}
		}
		if !keep {
			continue
		}
		fmt.Fprintf(&b, "%8d  NODE %d: %-14s %s\n", e.Cycle-base, e.Node, e.Name(), r.Detail(e))
	}
	return b.String()
}
