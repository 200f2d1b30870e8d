package noc

// Checkpoint support (DESIGN.md, "Checkpoint/restore") for the mesh:
// in-flight messages with their current position and readiness, the
// per-node arrival queues, the injection sequence, and the statistics.
//
// Deliberately NOT serialized, because none of it is observable across a
// cycle boundary: linkBusy grants (a grant for cycle t+1 written during
// cycle t can never equal a later cycle's test value, so stale entries —
// and their absence — are invisible), the deliveredTo/deliveredMark
// dedup of the most recent Step (consumed by the machine in the same
// cycle), and the nextWake cache (recomputed here from the decoded
// flights).

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

func (n *Network) encodeCoord(w *snap.Writer, c Coord) {
	w.Int(c.X)
	w.Int(c.Y)
	w.Int(c.Z)
}

func (n *Network) decodeCoord(r *snap.Reader) Coord {
	c := Coord{X: r.Int(), Y: r.Int(), Z: r.Int()}
	if r.Err() == nil && !n.InMesh(c) {
		r.Fail(fmt.Errorf("noc: snapshot coordinate %v outside mesh %v", c, n.dims))
	}
	return c
}

// encodeMessage writes one message, recursing into the returned original
// carried by a negative hardware acknowledgement.
func (n *Network) encodeMessage(w *snap.Writer, m *Message) {
	w.Int(m.Pri)
	n.encodeCoord(w, m.Src)
	n.encodeCoord(w, m.Dst)
	w.U64(m.DIP)
	w.U64(m.DstAddr)
	isa.EncodeWords(w, m.Body)
	w.U64(m.Seq)
	w.Bool(m.HWAck)
	w.Bool(m.AckOK)
	w.I64(m.InjectedAt)
	w.I64(m.DeliveredAt)
	w.Int(m.Hops)
	if m.Orig != nil {
		w.Bool(true)
		n.encodeMessage(w, m.Orig)
	} else {
		w.Bool(false)
	}
}

func (n *Network) decodeMessage(r *snap.Reader, depth int) *Message {
	m := &Message{
		Pri: r.Int(),
		Src: n.decodeCoord(r),
		Dst: n.decodeCoord(r),
	}
	if r.Err() == nil && (m.Pri < 0 || m.Pri >= NumPriorities) {
		r.Fail(fmt.Errorf("noc: snapshot message priority %d", m.Pri))
	}
	m.DIP = r.U64()
	m.DstAddr = r.U64()
	m.Body = isa.DecodeWords(r, maxBodyLen)
	m.Seq = r.U64()
	m.HWAck = r.Bool()
	m.AckOK = r.Bool()
	m.InjectedAt = r.I64()
	m.DeliveredAt = r.I64()
	m.Hops = r.Int()
	if r.Bool() {
		if depth > 0 {
			r.Fail(fmt.Errorf("noc: snapshot message nests originals beyond one level"))
			return m
		}
		m.Orig = n.decodeMessage(r, depth+1)
	}
	return m
}

// EncodeMessage writes a standalone message (the chips' resend buffers
// hold messages outside the network's own flight lists).
func (n *Network) EncodeMessage(w *snap.Writer, m *Message) { n.encodeMessage(w, m) }

// DecodeMessage reads a message written by EncodeMessage.
func (n *Network) DecodeMessage(r *snap.Reader) *Message { return n.decodeMessage(r, 0) }

// EncodeState writes the network's complete cross-cycle state.
func (n *Network) EncodeState(w *snap.Writer) {
	w.U64(n.seq)
	w.U64(n.Injected)
	w.U64(n.Delivered)
	w.U64(n.TotalHops)
	for pri := range n.flight {
		w.Len(len(n.flight[pri]))
		for i := range n.flight[pri] {
			f := &n.flight[pri][i]
			n.encodeMessage(w, f.msg)
			n.encodeCoord(w, f.at)
			w.I64(f.readyAt)
		}
	}
	for node := range n.arrivals {
		for pri := range n.arrivals[node] {
			q := &n.arrivals[node][pri]
			w.Len(q.len())
			for i := q.head; i < len(q.buf); i++ {
				n.encodeMessage(w, q.buf[i])
			}
		}
	}
}

// DecodeNetworkState reads a network written by EncodeState into a new
// network of the given shape. The next-wake cache is recomputed from the
// decoded flights, the arrival count and set from the decoded queues.
func DecodeNetworkState(r *snap.Reader, dims Coord, cfg Config) *Network {
	n := New(dims, cfg)
	n.seq = r.U64()
	n.Injected = r.U64()
	n.Delivered = r.U64()
	n.TotalHops = r.U64()
	for pri := range n.flight {
		cnt := r.Len(maxFlights)
		for i := 0; i < cnt; i++ {
			f := inflight{
				msg:     n.decodeMessage(r, 0),
				at:      n.decodeCoord(r),
				readyAt: r.I64(),
			}
			n.flight[pri] = append(n.flight[pri], f)
			if f.readyAt < n.nextWake {
				n.nextWake = f.readyAt
			}
		}
	}
	for node := range n.arrivals {
		for pri := range n.arrivals[node] {
			cnt := r.Len(maxArrivals)
			for i := 0; i < cnt; i++ {
				n.arrive(node, pri, n.decodeMessage(r, 0))
			}
		}
	}
	return n
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
// sequence and the statistics. Link grants and the last-Step delivery
// dedup start fresh, as after a restore — see the package note above
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
