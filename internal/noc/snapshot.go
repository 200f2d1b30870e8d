package noc

// Checkpoint support (DESIGN.md, "Checkpoint/restore") for the mesh:
// in-flight messages with their current position and readiness, the
// per-node arrival queues, the injection sequence, and the statistics.
//
// Deliberately NOT serialized, because none of it is observable across a
// cycle boundary: linkBusy grants (a grant for cycle t+1 written during
// cycle t can never equal a later cycle's test value, so stale entries —
// and their absence — are invisible), the cycle of the most recent Step
// (read by DeliveredNodes in the same cycle), and the nextWake cache
// (recomputed here from the decoded flights).

import (
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/snap"
)

// Decode bounds against corrupt counts.
const (
	maxFlights  = 1 << 20
	maxBodyLen  = 1 << 16
	maxArrivals = 1 << 20
)

func (n *Network) coord(c *snap.Codec, p *Coord) {
	c.Int(&p.X)
	c.Int(&p.Y)
	c.Int(&p.Z)
	if c.Reading() && c.Err() == nil && !n.InMesh(*p) {
		c.Fail(fmt.Errorf("noc: snapshot coordinate %v outside mesh %v", *p, n.dims))
	}
}

// MessageState walks *m, a message held outside the network's own lists
// (a chip's resend buffer and outbox, a dist frame); a decoder allocates
// it. Coordinates are validated against this network's mesh.
func (n *Network) MessageState(c *snap.Codec, m **Message) { n.message(c, m, 0) }

// message walks one message, recursing into the returned original a
// negative hardware acknowledgement carries; depth guards that nesting.
func (n *Network) message(c *snap.Codec, mp **Message, depth int) {
	if c.Reading() {
		*mp = new(Message)
	}
	m := *mp
	c.Int(&m.Pri)
	n.coord(c, &m.Src)
	n.coord(c, &m.Dst)
	if c.Reading() && c.Err() == nil && (m.Pri < 0 || m.Pri >= NumPriorities) {
		c.Fail(fmt.Errorf("noc: snapshot message priority %d", m.Pri))
	}
	c.U64(&m.DIP)
	c.U64(&m.DstAddr)
	isa.Words(c, &m.Body, maxBodyLen)
	c.U64(&m.Seq)
	c.Bool(&m.HWAck)
	c.Bool(&m.AckOK)
	c.I64(&m.InjectedAt)
	c.I64(&m.DeliveredAt)
	c.Int(&m.Hops)
	orig := m.Orig != nil
	c.Bool(&orig)
	if !orig {
		return
	}
	if c.Reading() && depth > 0 {
		c.Fail(fmt.Errorf("noc: snapshot message nests originals beyond one level"))
		return
	}
	n.message(c, &m.Orig, depth+1)
}

// State walks the network's complete cross-cycle state. A decoder fills a
// network from New of the saved shape, recomputing the next-wake cache
// from the decoded flights and the arrival count and set from the decoded
// queues.
func (n *Network) State(c *snap.Codec) {
	c.U64(&n.seq)
	c.U64(&n.Injected)
	c.U64(&n.Delivered)
	c.U64(&n.TotalHops)
	for pri := range n.flight {
		cnt := c.Len(len(n.flight[pri]), maxFlights)
		for i := 0; i < cnt && c.Err() == nil; i++ {
			f := snap.Elem(c, &n.flight[pri], i)
			n.message(c, &f.msg, 0)
			n.coord(c, &f.at)
			c.I64(&f.readyAt)
			if c.Reading() {
				n.nextWake = min(n.nextWake, f.readyAt)
			}
		}
	}
	for node := range n.arrivals {
		for pri := range n.arrivals[node] {
			q := &n.arrivals[node][pri]
			cnt := c.Len(q.len(), maxArrivals)
			for i := 0; i < cnt && c.Err() == nil; i++ {
				var m *Message
				if !c.Reading() {
					m = q.buf[q.head+i]
				}
				n.message(c, &m, 0)
				if c.Reading() {
					n.arrive(node, pri, m)
				}
			}
		}
	}
}

// Clone returns an independent copy of m, including the returned
// original a negative acknowledgement carries. Messages are mutable
// while they travel (hop count, delivery cycle), so a cloned network or
// chip never shares one with its source.
func (m *Message) Clone() *Message {
	f := &Message{
		Pri:         m.Pri,
		Src:         m.Src,
		Dst:         m.Dst,
		DIP:         m.DIP,
		DstAddr:     m.DstAddr,
		Body:        slices.Clone(m.Body),
		Seq:         m.Seq,
		HWAck:       m.HWAck,
		AckOK:       m.AckOK,
		InjectedAt:  m.InjectedAt,
		DeliveredAt: m.DeliveredAt,
		Hops:        m.Hops,
	}
	if m.Orig != nil {
		f.Orig = m.Orig.Clone()
	}
	return f
}

// Clone returns an independent network with n's cross-cycle state: the
// in-flight and delivered-but-unconsumed messages, the injection
// sequence and the statistics. Link grants and the last Step's cycle
// start fresh, as after a restore — see the package note above
// for why that is unobservable.
func (n *Network) Clone() *Network {
	f := New(n.dims, n.cfg)
	f.seq = n.seq
	f.Injected = n.Injected
	f.Delivered = n.Delivered
	f.TotalHops = n.TotalHops
	for pri, flights := range n.flight {
		f.flight[pri] = make([]inflight, len(flights))
		for i, fl := range flights {
			f.flight[pri][i] = inflight{msg: fl.msg.Clone(), at: fl.at, readyAt: fl.readyAt}
		}
	}
	for node := range n.arrivals {
		for pri := range n.arrivals[node] {
			q := &n.arrivals[node][pri]
			for _, m := range q.buf[q.head:] {
				f.arrive(node, pri, m.Clone())
			}
		}
	}
	f.nextWake = n.nextWake
	return f
}
