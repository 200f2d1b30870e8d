package chip

// The communication subsystem (Section 4.1): the SEND datapath with GTLB
// translation and protection checks, the network input interface that fills
// the register-mapped message queues, and the return-to-sender throttling
// protocol.
//
// A message has one owner at a time — the sender's outbox, the network,
// then the chip that pops it — and that chip reuses it instead of
// allocating per SEND (DESIGN.md, "Allocation discipline on hot paths").

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/gp"
	"repro/internal/gtlb"
	"repro/internal/isa"
	"repro/internal/noc"
	"repro/internal/trace"
)

// maxFreeMsgs bounds a chip's free list. Two-way traffic keeps each list
// balanced, since a request returns to its sender as its own
// acknowledgement; a node that mostly receives pri-1 replies gains one
// message per reply, and past the bound leaves them to the collector.
const maxFreeMsgs = 64

// gtlbToNoc converts between the two packages' coordinate types.
func gtlbToNoc(n gtlb.NodeID) noc.Coord { return noc.Coord{X: n.X, Y: n.Y, Z: n.Z} }

// executeSend implements SEND and SENDN. SEND translates the destination
// virtual address through the GTLB and launches atomically; SENDN is the
// privileged node-addressed form used by system reply handlers.
func (c *Chip) executeSend(now int64, vt, cl int, th *cluster.HThread, op *isa.Op) {
	if !op.SendBodyInFile() {
		c.protFault(vt, cl, th, "send body outside the register file")
		return
	}
	addrW := c.readSrc(vt, cl, th, op.Src1)
	dipW := c.readSrc(vt, cl, th, op.Src2)

	if op.Code == isa.SENDN {
		idx := int(addrW.Bits)
		if idx < 0 || idx >= c.Net.NumNodes() {
			c.protFault(vt, cl, th, fmt.Sprintf("sendn to bad node %d", idx))
			return
		}
		c.launch(th, op, 1, c.Net.CoordOf(idx), dipW.Bits, addrW.Bits)
		c.trace(trace.Event{Kind: trace.SendPri1, Arg: dipW.Bits, Sub: uint8(op.Imm), Peer: int32(idx)})
		return
	}

	// User-level SEND: the destination is a virtual address. Protection:
	// user threads must present a tagged pointer (the GTLB then guarantees
	// the message stays inside the sender's address space), and the DIP
	// must be registered ("If an illegal DIP is used, a fault will occur on
	// the sending thread before the message is sent").
	a := addrW.Bits
	if !th.Privileged {
		if !addrW.Ptr {
			c.protFault(vt, cl, th, "send to untagged address")
			return
		}
		if !c.validDIPs[dipW.Bits] {
			c.protFault(vt, cl, th, fmt.Sprintf("send with illegal DIP %d", dipW.Bits))
			return
		}
	}
	if addrW.Ptr {
		a = gp.Pointer(addrW.Bits).Addr()
	}
	home, err := c.GTLB.Translate(a)
	if err != nil {
		c.protFault(vt, cl, th, fmt.Sprintf("send to unmapped address %#x", a))
		return
	}
	// Throttling: reserve return-buffer space (checked in opReady).
	c.credits--
	dst := gtlbToNoc(home)
	c.launch(th, op, 0, dst, dipW.Bits, a)
	c.trace(trace.Event{Kind: trace.SendPri0, Arg: dipW.Bits, Sub: uint8(op.Imm)}.WithPeer(dst))
}

// launch composes the message of a SEND that passed its checks, its body
// read from the op's registers, and buffers it for injection.
func (c *Chip) launch(th *cluster.HThread, op *isa.Op, pri int, dst noc.Coord, dip, addr uint64) {
	m := c.newMsg(int(op.Imm))
	for i := range m.Body {
		m.Body[i] = th.Ints.Get(int(op.Dst.Index) + i)
	}
	m.Pri, m.Src, m.Dst, m.DIP, m.DstAddr = pri, c.Node, dst, dip, addr
	c.send(m)
}

// newMsg takes a message from the free list, allocating one only when the
// list is empty, and gives it a body of n words.
func (c *Chip) newMsg(n int) *noc.Message {
	var m *noc.Message
	if k := len(c.freeMsgs) - 1; k >= 0 {
		m = c.freeMsgs[k]
		c.freeMsgs[k] = nil
		c.freeMsgs = c.freeMsgs[:k]
	} else {
		m = new(noc.Message)
	}
	if cap(m.Body) < n {
		m.Body = make([]isa.Word, n)
	}
	m.Body = m.Body[:n]
	return m
}

// release puts a message this chip consumed onto its free list. The message
// is zeroed there, apart from its body's backing array, so nothing it
// pointed to stays reachable through the list.
func (c *Chip) release(m *noc.Message) {
	*m = noc.Message{Body: m.Body[:0]}
	if len(c.freeMsgs) < maxFreeMsgs {
		c.freeMsgs = append(c.freeMsgs, m)
	}
}

// sendAck sends m as the hardware acknowledgement to dst: ok reports that
// the destination consumed the request, orig is the refused request
// itself otherwise.
func (c *Chip) sendAck(m *noc.Message, dst noc.Coord, ok bool, orig *noc.Message) {
	m.Pri, m.Src, m.Dst, m.HWAck, m.AckOK, m.Orig = 1, c.Node, dst, true, ok, orig
	c.send(m)
}

// networkInput drains delivered messages into the hardware message queues.
// Priority 1 (replies) is drained first. Arriving priority-0 messages
// generate the hardware consumed/returned acknowledgement.
func (c *Chip) networkInput(now int64) {
	for pri := noc.NumPriorities - 1; pri >= 0; pri-- {
		for {
			m := c.Net.Pop(c.Node, pri)
			if m == nil {
				break
			}
			c.receiveMsg(now, m)
		}
	}
}

func (c *Chip) receiveMsg(now int64, m *noc.Message) {
	if m.HWAck {
		if m.AckOK {
			// Destination consumed the message: release the reserved
			// return-buffer slot.
			c.credits++
		} else {
			// Message returned: hold it in the reserved buffer and resend
			// later (Section 4.1: "the reply contains the contents of the
			// original message which are copied into the buffer and resent
			// at a later time").
			c.MsgsReturned++
			at := now + c.Cfg.ResendDelay
			c.resends = append(c.resends, resend{msg: m.Orig, at: at})
			if at < c.resendNext {
				c.resendNext = at
			}
		}
		c.release(m)
		return
	}

	c.msgScratch = append(c.msgScratch[:0], isa.W(m.DIP), isa.W(m.DstAddr))
	c.msgScratch = append(c.msgScratch, m.Body...)
	accepted := c.msgq[m.Pri].PushWords(c.msgScratch)
	e := trace.Event{Kind: trace.MsgRecv, Arg: m.DIP, Sub: uint8(m.Pri)}.WithPeer(m.Src)
	if !accepted {
		e.Kind = trace.MsgReject
	}
	switch {
	case m.Pri != 0:
		c.release(m)
	case accepted:
		// The words are in the queue: the request itself goes back as the
		// positive acknowledgement.
		src := m.Src
		*m = noc.Message{Body: m.Body[:0]}
		c.sendAck(m, src, true, nil)
	default:
		c.sendAck(c.newMsg(0), m.Src, false, m)
	}
	c.trace(e)
}

// resendReturned re-injects returned messages whose backoff has expired.
// The messages still hold their buffer reservation, so no credit check.
func (c *Chip) resendReturned(now int64) {
	if now < c.resendNext {
		return
	}
	kept := c.resends[:0]
	next := NoEvent
	for _, r := range c.resends {
		if r.at > now {
			kept = append(kept, r)
			if r.at < next {
				next = r.at
			}
			continue
		}
		// The held request goes out as it first did: same route and
		// contents, with the fields its earlier trip set cleared.
		m := r.msg
		*m = noc.Message{Pri: m.Pri, Src: c.Node, Dst: m.Dst, DIP: m.DIP, DstAddr: m.DstAddr, Body: m.Body}
		c.send(m)
		c.trace(trace.Event{Kind: trace.Resend, Arg: m.DIP}.WithPeer(m.Dst))
	}
	for i := len(kept); i < len(c.resends); i++ {
		c.resends[i] = resend{}
	}
	c.resends = kept
	c.resendNext = next
}
