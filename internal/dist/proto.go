// Package dist is the distributed multi-process engine (DESIGN.md, "The
// distributed engine"): a coordinator partitions the mesh into contiguous
// node ranges and farms each range out to a shard worker process on the
// same host, connected over loopback sockets. The participant set is
// fixed at session start and every shard has an explicit locator — the
// HDDS-Micro idiom of a small, preallocated, fully-enumerated federation
// rather than an elastic cluster.
//
// The engine is conservatively synchronized and bit-identical to the
// in-process engines: the coordinator owns the authoritative network,
// the clock, and the run-loop completion checks, while shards own chip
// state and step only their range. One exchange covers a lookahead
// window of up to noc.Network.Lookahead() cycles — no message injected
// inside it can reach a chip before it ends — so the coordinator ships
// each shard every delivery its chips will see in the window, tagged with
// the cycle it becomes visible, and the shard returns one section per
// cycle: drained outboxes, consumptions, trace records and activity. The
// coordinator replays the sections cycle by cycle, injecting outboxes in
// global node order, so sequence numbers (and therefore every simulated
// result) match an in-process run exactly.
//
// The headline is supervision (the robustness story of internal/serve
// applied across process boundaries): the protocol is one request, one
// reply, so the coordinator bounds each reply by one wall deadline,
// classifies failures as crash (a reported panic) / stall (a missed
// deadline) / lost connection, and recovers a dead shard by respawning
// it and rewinding the whole federation to the latest coordinated
// window-boundary checkpoint, from which execution resumes
// bit-identically.
//
// This file is the wire protocol: length-prefixed frames over any
// net.Conn (loopback TCP for real workers, net.Pipe for in-process
// ones), with snap-encoded payloads.
package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/snap"
	"repro/internal/trace"
)

// protoVersion gates the handshake: a coordinator and worker from
// different builds refuse to pair instead of corrupting each other.
// Version 5 frames carry only the SDRAM pages that hold data; version 6
// is one reply per command, with nothing unsolicited; version 7 frames
// carry the snapshot version 3 thread contexts.
const protoVersion = 7

// Frame kinds. Commands flow coordinator -> worker, replies worker ->
// coordinator, exactly one reply per command (a worker's hello is the
// reply to its connection). The coordinator ends a worker by hanging up.
const (
	cmdInit     = byte(0x01) // initSpec: shard identity, range, chaos
	cmdSeed     = byte(0x02) // shard frame of the worker's range (machine.EncodeShard)
	cmdBeginRun = byte(0x03) // run-phase entry: wake chips, report activity
	cmdStep     = byte(0x04) // stepCmd: advance owned chips through a window
	cmdPull     = byte(0x06) // coordinator clock: catch up to it, reply with a shard frame (machine.EncodeShard)

	repHello    = byte(0x41) // worker's first frame: protocol version
	repOK       = byte(0x42) // empty acknowledgement
	repActivity = byte(0x43) // activity aggregates
	repStep     = byte(0x44) // stepReply
	repFrame    = byte(0x45) // shard frame bytes
	repErr      = byte(0x46) // contained worker failure (classified crash)
)

// maxFrame bounds a frame payload; anything larger is a corrupt stream.
// readFrame allocates at most frameChunk bytes before any arrive.
const maxFrame, frameChunk = 1 << 30, 1 << 22

// maxWindow bounds a step window's width on the wire (the coordinator's
// is noc.Network.Lookahead(), 3 under the default timing).
const maxWindow = 1 << 10

// writeFrame writes one [kind][len u32 LE][payload] frame.
func writeFrame(w io.Writer, kind byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame written by writeFrame. A payload of at most
// frameChunk bytes is read into *buf, grown to fit and kept for the next
// call, so it is valid only until the connection's next read; a nil buf
// allocates every payload.
func readFrame(r io.Reader, buf *[]byte) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[1:]))
	if n > maxFrame {
		return 0, nil, fmt.Errorf("dist: frame of %d bytes exceeds the %d-byte cap", n, maxFrame)
	}
	// Past frameChunk the payload doubles as its bytes arrive, so a
	// corrupt length costs what the stream holds, not what it claims.
	var payload []byte
	if buf != nil && n <= frameChunk {
		if cap(*buf) < n {
			*buf = make([]byte, n)
		}
		payload = (*buf)[:n]
	} else {
		payload = make([]byte, min(n, frameChunk))
	}
	for read := 0; ; {
		if _, err := io.ReadFull(r, payload[read:]); err != nil {
			return 0, nil, err
		}
		if read = len(payload); read == n {
			return hdr[0], payload, nil
		}
		payload = append(payload, make([]byte, min(n-read, read))...)
	}
}

// ChaosSpec is a deterministic worker-side fault for drills and tests,
// armed as a faultinject probe: the first time the owning shard is about
// to step Node at a cycle >= Cycle, it panics (Kind "panic", contained and
// reported as a crash) or wedges forever (Kind "hang", tripping the
// coordinator's per-window deadline). Chaos never alters simulated state — a recovered
// run is bit-identical to an undisturbed one.
type ChaosSpec struct {
	Node  int
	Cycle int64
	Kind  string // "panic" | "hang"
}

// initSpec configures a worker: its shard index, owned node range
// [Lo, Hi), and any armed chaos.
type initSpec struct {
	Shard, Lo, Hi int
	Chaos         []ChaosSpec
}

// frame returns the bytes walk writes.
func frame(walk func(c *snap.Codec)) []byte { return frameTo(nil, walk) }

// frameTo returns the bytes walk writes, in buf's storage, valid until
// buf's next use; a nil buf allocates. (A bytes.Buffer sink never fails,
// so the flush has no error to report.)
func frameTo(buf *bytes.Buffer, walk func(c *snap.Codec)) []byte {
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	c := snap.NewEncoder(buf)
	walk(c)
	c.Flush()
	return buf.Bytes()
}

// unframe runs walk over payload bytes and returns the codec's error. A
// decoder reads a byte slice whose length bounds every count, so a
// corrupt count fails descriptively instead of sizing a huge allocation.
func unframe(p []byte, walk func(c *snap.Codec)) error {
	c := snap.NewDecoder(p)
	walk(c)
	return c.Err()
}

func (s *initSpec) state(c *snap.Codec) {
	c.Int(&s.Shard)
	c.Int(&s.Lo)
	c.Int(&s.Hi)
	n := c.Len(len(s.Chaos), 1<<16)
	for i := 0; i < n && c.Err() == nil; i++ {
		ch := snap.Elem(c, &s.Chaos, i)
		c.Int(&ch.Node)
		c.I64(&ch.Cycle)
		c.String(&ch.Kind, 64)
	}
}

func encodeInit(s *initSpec) []byte { return frame(s.state) }

// activity carries one shard's run-loop aggregates, computed by
// machine.ShardActivity with the same definitions as the in-process
// loop head: running user H-Threads, non-quiescent chips, instructions
// issued, the earliest chip event, and the first fault in scan order.
type activity struct {
	machine.Activity
	Next  int64
	Fault string
}

func (a *activity) state(c *snap.Codec) {
	// The embedded field is named so mlint's snapfields sees it walked.
	c.Int(&a.Activity.Running)
	c.Int(&a.Activity.Busy)
	c.U64(&a.Activity.Issued)
	c.I64(&a.Next)
	c.String(&a.Fault, 1<<12)
}

func encodeActivityFrame(a *activity) []byte { return frame(a.state) }

// delivery ships one authoritative-network delivery to the shard that
// owns the destination node; the shard replays it into its local
// mailbox just before the chip phase of cycle At — the cycle after the
// hub Step that delivers it, when an in-process chip would first see it —
// so the chip consumes it exactly as it would in-process.
type delivery struct {
	At        int64
	Node, Pri int
	Msg       *noc.Message
}

// stepCmd advances a shard's owned chips through the window of machine
// cycles [Cycle, Cycle+Width). The gap between the shard's local clock and
// Cycle is the idle stretch the coordinator fast-forwarded over; each
// owned chip replays it when it next acts, exactly as in-process.
// Deliveries are in visibility order, each tagged inside the window.
type stepCmd struct {
	Cycle      int64
	Width      int
	Deliveries []delivery
}

func (s *stepCmd) state(c *snap.Codec, net *noc.Network) {
	c.I64(&s.Cycle)
	c.Int(&s.Width)
	if c.Reading() && c.Err() == nil && (s.Width < 1 || s.Width > maxWindow) {
		c.Fail(fmt.Errorf("dist: step window of %d cycles outside [1, %d]", s.Width, maxWindow))
	}
	end := s.Cycle + int64(s.Width)
	n := c.Len(len(s.Deliveries), 1<<24)
	for i, at := 0, s.Cycle; i < n && c.Err() == nil; i++ {
		d := snap.Elem(c, &s.Deliveries, i)
		c.I64(&d.At)
		c.Int(&d.Node)
		c.Int(&d.Pri)
		net.MessageState(c, &d.Msg)
		if c.Reading() && c.Err() == nil && (d.At < at || d.At >= end) {
			c.Fail(fmt.Errorf("dist: delivery tagged cycle %d after one tagged %d, window [%d,%d)", d.At, at, s.Cycle, end))
		}
		at = d.At
	}
}

func encodeStep(buf *bytes.Buffer, net *noc.Network, s *stepCmd) []byte {
	return frameTo(buf, func(c *snap.Codec) { s.state(c, net) })
}

func decodeStep(net *noc.Network, p []byte) (*stepCmd, error) {
	s := &stepCmd{}
	return s, unframe(p, func(c *snap.Codec) { s.state(c, net) })
}

// consumption confirms that the shard's chip consumed N messages from
// its (Node, Pri) mailbox this cycle, so the coordinator can retire the
// same N from the authoritative arrival queue — keeping the two exactly
// equal at every synchronization point.
type consumption struct {
	Node, Pri, N int
}

// cycleReply is everything one shard produced during one cycle of a
// window: drained outbox messages in node order (the coordinator injects
// them, assigning global sequence numbers), consumption confirmations, the
// owned chips' trace records in node order (the coordinator appends the
// shards' in shard order, so the merged stream matches the serial
// engines'), and the post-step activity aggregates.
type cycleReply struct {
	Msgs     []*noc.Message
	Consumed []consumption
	Trace    trace.Recorder
	Act      activity
}

// stepReply is a window's output: one section per cycle, in cycle order.
type stepReply struct {
	Cycles []cycleReply
}

// section returns the reply's k-th cycle section, reusing what an earlier
// window left in its slot.
func (rep *stepReply) section(k int) *cycleReply {
	if k < cap(rep.Cycles) {
		rep.Cycles = rep.Cycles[:k+1]
	} else {
		rep.Cycles = append(rep.Cycles, cycleReply{})
	}
	return &rep.Cycles[k]
}

// state walks the reply's sections. A decoder reuses the buffers of the
// sections an earlier window left in rep.
func (rep *stepReply) state(c *snap.Codec, net *noc.Network) {
	n := c.Len(len(rep.Cycles), maxWindow)
	if c.Reading() {
		rep.Cycles = rep.Cycles[:0]
	}
	for k := 0; k < n && c.Err() == nil; k++ {
		var cr *cycleReply
		if c.Reading() {
			cr = rep.section(k)
			cr.Msgs, cr.Consumed = cr.Msgs[:0], cr.Consumed[:0]
		} else {
			cr = &rep.Cycles[k]
		}
		m := c.Len(len(cr.Msgs), 1<<24)
		for i := 0; i < m && c.Err() == nil; i++ {
			net.MessageState(c, snap.Elem(c, &cr.Msgs, i))
		}
		m = c.Len(len(cr.Consumed), 1<<24)
		for i := 0; i < m && c.Err() == nil; i++ {
			x := snap.Elem(c, &cr.Consumed, i)
			c.Int(&x.Node)
			c.Int(&x.Pri)
			c.Int(&x.N)
		}
		cr.Trace.State(c, 1<<24, 1<<16)
		cr.Act.state(c)
	}
}

func encodeStepReply(buf *bytes.Buffer, net *noc.Network, rep *stepReply) []byte {
	return frameTo(buf, func(c *snap.Codec) { rep.state(c, net) })
}

// decodeStepReply decodes p into rep, reusing its sections' buffers.
func decodeStepReply(net *noc.Network, p []byte, rep *stepReply) error {
	return unframe(p, func(c *snap.Codec) { rep.state(c, net) })
}

func encodeI64(v int64) []byte { return frame(func(c *snap.Codec) { c.I64(&v) }) }

func decodeI64(p []byte) (v int64, err error) {
	err = unframe(p, func(c *snap.Codec) { c.I64(&v) })
	return v, err
}

func encodeString(s string) []byte { return frame(func(c *snap.Codec) { c.String(&s, 0) }) }

func decodeString(p []byte) (s string, err error) {
	err = unframe(p, func(c *snap.Codec) { c.String(&s, 1<<20) })
	return s, err
}
