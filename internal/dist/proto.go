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
// applied across process boundaries): the coordinator heartbeats each
// shard, enforces a per-window wall deadline, classifies failures as
// crash / stall / lost connection, and recovers a dead shard by
// respawning it and rewinding the whole federation to the latest
// coordinated window-boundary checkpoint, from which execution resumes
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
	"net"
	"time"

	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/snap"
	"repro/internal/trace"
)

// protoVersion gates the handshake: a coordinator and worker from
// different builds refuse to pair instead of corrupting each other.
// Version 3 steps windows of cycles per exchange.
const protoVersion = 3

// Frame kinds. Commands flow coordinator -> worker, replies worker ->
// coordinator; repHeartbeat may arrive between any command and its reply.
const (
	cmdInit     = byte(0x01) // initSpec: shard identity, range, chaos
	cmdSeed     = byte(0x02) // full machine snapshot (machine.Save bytes)
	cmdBeginRun = byte(0x03) // run-phase entry: wake chips, report activity
	cmdStep     = byte(0x04) // stepCmd: advance owned chips through a window
	cmdPull     = byte(0x06) // coordinator clock: catch up to it, reply with a shard frame (machine.EncodeShard)
	cmdShutdown = byte(0x07) // orderly exit

	repHello     = byte(0x41) // worker's first frame: protocol version
	repOK        = byte(0x42) // empty acknowledgement
	repActivity  = byte(0x43) // activity aggregates
	repStep      = byte(0x44) // stepReply
	repFrame     = byte(0x45) // shard frame bytes
	repErr       = byte(0x46) // contained worker failure (classified crash)
	repHeartbeat = byte(0x47) // liveness beacon from the worker
)

// maxFrame bounds a frame payload; anything larger is a corrupt stream.
const maxFrame = 1 << 30

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

// readFrame reads one frame written by writeFrame.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("dist: frame of %d bytes exceeds the %d-byte cap", n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// ChaosSpec is a deterministic worker-side fault for drills and tests
// (see internal/faultinject): when the owning shard is about to step
// Node at Cycle, it panics (Kind "panic", contained and reported as a
// crash) or wedges forever (Kind "hang", tripping the coordinator's
// per-window deadline). Chaos never alters simulated state — a recovered
// run is bit-identical to an undisturbed one.
type ChaosSpec struct {
	Node  int
	Cycle int64
	Kind  string // "panic" | "hang"
}

// initSpec configures a worker: its shard index, owned node range
// [Lo, Hi), heartbeat cadence, and any armed chaos.
type initSpec struct {
	Shard, Lo, Hi   int
	HeartbeatMillis int64
	Chaos           []ChaosSpec
}

// frame returns the bytes encode writes. (A bytes.Buffer sink never
// fails, so the flush has no error to report.)
func frame(encode func(w *snap.Writer)) []byte {
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	encode(w)
	w.Flush()
	return buf.Bytes()
}

func encodeInit(s *initSpec) []byte {
	return frame(func(w *snap.Writer) {
		w.Int(s.Shard)
		w.Int(s.Lo)
		w.Int(s.Hi)
		w.I64(s.HeartbeatMillis)
		w.Len(len(s.Chaos))
		for _, c := range s.Chaos {
			w.Int(c.Node)
			w.I64(c.Cycle)
			w.String(c.Kind)
		}
	})
}

func decodeInit(p []byte) (*initSpec, error) {
	r := limitedReader(p)
	s := &initSpec{Shard: r.Int(), Lo: r.Int(), Hi: r.Int(), HeartbeatMillis: r.I64()}
	n := r.Len(1 << 16)
	for i := 0; i < n && r.Err() == nil; i++ {
		s.Chaos = append(s.Chaos, ChaosSpec{Node: r.Int(), Cycle: r.I64(), Kind: r.String(64)})
	}
	return s, r.Err()
}

// activity carries one shard's run-loop aggregates, computed by
// machine.ShardActivity with the same definitions as the in-process
// loop head: running user H-Threads, non-quiescent chips, instructions
// issued, the earliest chip event, and the first fault in scan order.
type activity struct {
	machine.Activity
	Next  int64
	Fault string
}

func (a *activity) encode(w *snap.Writer) {
	// The embedded field is named so mlint's snapfields sees it encoded.
	w.Int(a.Activity.Running)
	w.Int(a.Activity.Busy)
	w.U64(a.Activity.Issued)
	w.I64(a.Next)
	w.String(a.Fault)
}

func decodeActivity(r *snap.Reader) activity {
	return activity{
		Activity: machine.Activity{Running: r.Int(), Busy: r.Int(), Issued: r.U64()},
		Next:     r.I64(),
		Fault:    r.String(1 << 12),
	}
}

func encodeActivityFrame(a *activity) []byte {
	return frame(func(w *snap.Writer) {
		a.encode(w)
	})
}

func decodeActivityFrame(p []byte) (activity, error) {
	r := limitedReader(p)
	a := decodeActivity(r)
	return a, r.Err()
}

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

func encodeStep(net *noc.Network, c *stepCmd) []byte {
	return frame(func(w *snap.Writer) {
		w.I64(c.Cycle)
		w.Int(c.Width)
		w.Len(len(c.Deliveries))
		for _, d := range c.Deliveries {
			w.I64(d.At)
			w.Int(d.Node)
			w.Int(d.Pri)
			net.EncodeMessage(w, d.Msg)
		}
	})
}

func decodeStep(net *noc.Network, p []byte) (*stepCmd, error) {
	r := limitedReader(p)
	c := &stepCmd{Cycle: r.I64(), Width: r.Int()}
	if r.Err() == nil && (c.Width < 1 || c.Width > maxWindow) {
		r.Fail(fmt.Errorf("dist: step window of %d cycles outside [1, %d]", c.Width, maxWindow))
	}
	end := c.Cycle + int64(c.Width)
	n := r.Len(1 << 24)
	for i, at := 0, c.Cycle; i < n && r.Err() == nil; i++ {
		d := delivery{At: r.I64(), Node: r.Int(), Pri: r.Int(), Msg: net.DecodeMessage(r)}
		if r.Err() == nil && (d.At < at || d.At >= end) {
			r.Fail(fmt.Errorf("dist: delivery tagged cycle %d after one tagged %d, window [%d,%d)", d.At, at, c.Cycle, end))
		}
		at = d.At
		c.Deliveries = append(c.Deliveries, d)
	}
	return c, r.Err()
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

func encodeStepReply(net *noc.Network, rep *stepReply) []byte {
	return frame(func(w *snap.Writer) {
		w.Len(len(rep.Cycles))
		for k := range rep.Cycles {
			c := &rep.Cycles[k]
			w.Len(len(c.Msgs))
			for _, m := range c.Msgs {
				net.EncodeMessage(w, m)
			}
			w.Len(len(c.Consumed))
			for _, x := range c.Consumed {
				w.Int(x.Node)
				w.Int(x.Pri)
				w.Int(x.N)
			}
			c.Trace.Encode(w)
			c.Act.encode(w)
		}
	})
}

// decodeStepReply decodes p into rep, reusing its sections' buffers.
func decodeStepReply(net *noc.Network, p []byte, rep *stepReply) error {
	r := limitedReader(p)
	n := r.Len(maxWindow)
	rep.Cycles = rep.Cycles[:0]
	for k := 0; k < n && r.Err() == nil; k++ {
		c := rep.section(k)
		c.Msgs, c.Consumed = c.Msgs[:0], c.Consumed[:0]
		m := r.Len(1 << 24)
		for i := 0; i < m && r.Err() == nil; i++ {
			c.Msgs = append(c.Msgs, net.DecodeMessage(r))
		}
		m = r.Len(1 << 24)
		for i := 0; i < m && r.Err() == nil; i++ {
			c.Consumed = append(c.Consumed, consumption{Node: r.Int(), Pri: r.Int(), N: r.Int()})
		}
		c.Trace.Decode(r, 1<<24, 1<<16)
		c.Act = decodeActivity(r)
	}
	return r.Err()
}

func encodeI64(v int64) []byte {
	return frame(func(w *snap.Writer) {
		w.I64(v)
	})
}

func decodeI64(p []byte) (int64, error) {
	r := limitedReader(p)
	v := r.I64()
	return v, r.Err()
}

func encodeString(s string) []byte {
	return frame(func(w *snap.Writer) {
		w.String(s)
	})
}

func decodeString(p []byte) (string, error) {
	r := limitedReader(p)
	s := r.String(1 << 20)
	return s, r.Err()
}

// limitedReader wraps payload bytes in a snap.Reader with its length
// limit armed, so corrupt counts fail descriptively instead of
// attempting huge allocations.
func limitedReader(p []byte) *snap.Reader {
	r := snap.NewReader(bytes.NewReader(p))
	r.Limit(int64(len(p)))
	return r
}

// netConn is the transport a shard connection needs: framed I/O plus
// deadlines for the per-window watchdog. Both loopback TCP sockets and
// net.Pipe halves satisfy it.
type netConn = net.Conn

// writeDeadline is how long a frame write may block before the shard is
// declared unresponsive (a wedged worker eventually fills the socket
// buffer; without a deadline the coordinator would wedge with it).
func writeFrameDeadline(c netConn, kind byte, payload []byte, d time.Duration) error {
	if d > 0 {
		if err := c.SetWriteDeadline(time.Now().Add(d)); err != nil {
			return err
		}
		defer c.SetWriteDeadline(time.Time{})
	}
	return writeFrame(c, kind, payload)
}
