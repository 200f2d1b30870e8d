package chip

// Checkpoint support (DESIGN.md, "Checkpoint/restore") for one MAP node:
// cluster register files and thread contexts, the hardware event and
// message queues, scheduled writebacks, outstanding memory requests and
// their routing metadata, the SEND datapath's credits and resend buffer,
// the registered DIPs, the sharer directory, the console output, the GTLB
// cache, and the whole memory system.
//
// Deliberately NOT serialized, because each is re-derived or invisible
// across the snapshot boundary: the event-engine wake cache and the idle
// replay state (the machine re-touches every chip on restore, and an
// early wake is always observably identical — see "The NextEvent
// contract"), the per-cycle C-Switch budget (reset at every Step), the
// message scratch buffer, and the trace buffer (always drained between
// cycles, which is the only point a snapshot can be taken).

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/cluster"
	"repro/internal/gtlb"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/snap"
)

// Decode bounds against corrupt counts.
const (
	maxPending = 1 << 20
	maxMapLen  = 1 << 20
	maxConsole = 1 << 26
)

func regState(c *snap.Codec, g *isa.Reg) {
	snap.Integer(c, &g.Class)
	snap.Integer(c, &g.Index)
	snap.Integer(c, &g.Cluster)
	if c.Reading() && c.Err() == nil && !g.Valid() {
		c.Fail(fmt.Errorf("chip: bad snapshot register %d/%d/%d", g.Class, g.Index, g.Cluster))
	}
}

func wordState(c *snap.Codec, w *isa.Word) {
	c.U64(&w.Bits)
	c.Bool(&w.Ptr)
}

func checkSlot(c *snap.Codec, vthread, cl int) {
	if c.Err() == nil && (vthread < 0 || vthread >= isa.NumVThreads || cl < 0 || cl >= isa.NumClusters) {
		c.Fail(fmt.Errorf("chip: bad snapshot thread slot v%d c%d", vthread, cl))
	}
}

// Decode builds a chip from a stream State wrote, bound to net and gdt.
// It fills the shell New also starts from — what a chip has beyond its
// state: the configured queue capacities and the console on the I/O bus
// — and like a Clone it has no trace sink or wake hook and a wake cycle of
// zero. A full restore decodes the chips before the network that follows
// them in the stream: net then is the new network's shell, which has the
// decoded one's shape, and install rebinds the chips.
func Decode(c *snap.Codec, cfg Config, node noc.Coord, index int, net *noc.Network, gdt *gtlb.Table) *Chip {
	ch := shell(cfg, node, index, net, gdt)
	ch.State(c)
	return ch
}

// State walks the chip's complete cross-cycle state.
func (ch *Chip) State(c *snap.Codec) {
	c.I64(&ch.Cycle)
	c.U64(&ch.InstsIssued)
	c.U64(&ch.OpsIssued)
	c.U64(&ch.SendsBlocked)
	c.U64(&ch.MsgsReturned)
	c.Int(&ch.credits)
	c.U64(&ch.memSeq)

	for i := range ch.Clusters {
		if c.Reading() {
			ch.Clusters[i] = &cluster.Cluster{ID: i}
		}
		ch.Clusters[i].State(c)
	}
	ch.excq.State(c)
	for _, q := range ch.evq {
		q.State(c)
	}
	for _, q := range ch.msgq {
		q.State(c)
	}

	np := c.Len(len(ch.pendingRegs), maxPending)
	for i := 0; i < np && c.Err() == nil; i++ {
		p := snap.Elem(c, &ch.pendingRegs, i)
		c.I64(&p.at)
		c.Int(&p.vthread)
		c.Int(&p.cl)
		regState(c, &p.reg)
		wordState(c, &p.w)
		if c.Reading() {
			checkSlot(c, p.vthread, p.cl)
			ch.pendRegNext = min(ch.pendRegNext, p.at)
		}
	}
	ng := c.Len(len(ch.pendingGCC), maxPending)
	for i := 0; i < ng && c.Err() == nil; i++ {
		g := snap.Elem(c, &ch.pendingGCC, i)
		c.I64(&g.at)
		c.Int(&g.idx)
		wordState(c, &g.w)
		if c.Reading() {
			if c.Err() == nil && (g.idx < 0 || g.idx >= isa.NumGCCRegs) {
				c.Fail(fmt.Errorf("chip: bad snapshot GCC index %d", g.idx))
			}
			ch.pendGCCNext = min(ch.pendGCCNext, g.at)
		}
	}

	nm := c.Len(len(ch.memReqs), maxPending)
	for i := 0; i < nm && c.Err() == nil; i++ {
		q := snap.Elem(c, &ch.memReqs, i)
		c.U64(&q.token)
		c.Int(&q.meta.vthread)
		c.Int(&q.meta.cl)
		regState(c, &q.meta.dst)
		c.Bool(&q.meta.isRetry)
		c.U64(&q.meta.regDesc)
		wordState(c, &q.meta.data)
		if c.Reading() && c.Err() == nil {
			checkSlot(c, q.meta.vthread, q.meta.cl)
			// memResponse routes completions through this metadata without
			// further checks, so reject anything it could not route: a
			// retry descriptor must unpack to a real Int/FP register slot
			// or no register at all (a store retry carries the RNone
			// descriptor its faulting store packed — completion never
			// dereferences it; UnpackRegDesc masks wider than the
			// machine's limits), and a direct destination must likewise be
			// a register-file class or empty.
			if q.meta.isRetry {
				vt, cl, reg := isa.UnpackRegDesc(q.meta.regDesc)
				if !regInRange(vt, cl, reg) || reg.Class != isa.RNone && reg.Class != isa.RInt && reg.Class != isa.RFP {
					c.Fail(fmt.Errorf("chip: snapshot retry descriptor %#x names no register", q.meta.regDesc))
				}
			} else if cls := q.meta.dst.Class; cls != isa.RNone && cls != isa.RInt && cls != isa.RFP {
				c.Fail(fmt.Errorf("chip: snapshot memory request destination class %d", cls))
			}
		}
	}

	nr := c.Len(len(ch.resends), maxPending)
	for i := 0; i < nr && c.Err() == nil; i++ {
		rs := snap.Elem(c, &ch.resends, i)
		c.I64(&rs.at)
		ch.Net.MessageState(c, &rs.msg)
		if c.Reading() {
			ch.resendNext = min(ch.resendNext, rs.at)
		}
	}
	no := c.Len(len(ch.outbox), maxPending)
	for i := 0; i < no && c.Err() == nil; i++ {
		ch.Net.MessageState(c, snap.Elem(c, &ch.outbox, i))
	}

	// Both maps travel as sorted key lists.
	var dips []uint64
	if !c.Reading() {
		dips = c.Stage(len(ch.validDIPs))[:0]
		for d := range ch.validDIPs {
			dips = append(dips, d)
		}
		slices.Sort(dips)
	}
	c.U64s(&dips, maxMapLen)
	if c.Reading() {
		for _, d := range dips {
			ch.validDIPs[d] = true
		}
	}
	var blocks []uint64
	if !c.Reading() {
		blocks = make([]uint64, 0, len(ch.directory))
		for b := range ch.directory {
			blocks = append(blocks, b)
		}
		slices.Sort(blocks)
	}
	for i := range c.Len(len(blocks), maxMapLen) {
		var b uint64
		var sharers []int
		if !c.Reading() {
			b = blocks[i]
			sharers = ch.directory[b]
		}
		c.U64(&b)
		ns := c.Len(len(sharers), maxMapLen)
		if c.Reading() {
			sharers = make([]int, ns)
		}
		for j := range sharers {
			c.Int(&sharers[j])
		}
		if c.Reading() {
			if c.Err() != nil {
				break
			}
			ch.directory[b] = sharers
		}
	}

	ch.Console.mu.Lock()
	c.Bytes(&ch.Console.buf, maxConsole)
	ch.Console.mu.Unlock()

	ch.GTLB.State(c)
	ch.Mem.State(c)
	if c.Reading() && c.Err() == nil {
		// Cross-check the decoded memory system against the routing
		// metadata: every in-flight response must have a request entry
		// (memResponse panics on orphans), and a successful read must name
		// a register destination (its writeback goes through File, which
		// only serves Int/FP).
		for _, resp := range ch.Mem.PendingResponses() {
			var meta *reqMeta
			for j := range ch.memReqs {
				if ch.memReqs[j].token == resp.Req.Token {
					meta = &ch.memReqs[j].meta
					break
				}
			}
			if meta == nil {
				c.Fail(fmt.Errorf("chip: snapshot response token %d has no request metadata", resp.Req.Token))
				break
			}
			if resp.Fault == mem.FaultNone && !resp.Req.Kind.IsWrite() && !meta.isRetry &&
				meta.dst.Class != isa.RInt && meta.dst.Class != isa.RFP {
				c.Fail(fmt.Errorf("chip: snapshot read response token %d routes to no register", resp.Req.Token))
				break
			}
		}
	}
}

// Clone returns an independent chip with c's cross-cycle state, bound to
// net and gdt (the clone machine's own network and table). Like a chip
// decoded from a snapshot it has no trace sink or wake hook, an
// empty idle-replay cache, and a wake cycle of zero, so its first step
// re-derives everything the engines cache.
func (c *Chip) Clone(net *noc.Network, gdt *gtlb.Table) *Chip {
	f := &Chip{
		Cfg:          c.Cfg,
		Node:         c.Node,
		Index:        c.Index,
		Mem:          c.Mem.Clone(),
		Net:          net,
		GTLB:         c.GTLB.Clone(gdt),
		excq:         c.excq.Clone(),
		pendingRegs:  slices.Clone(c.pendingRegs),
		pendingGCC:   slices.Clone(c.pendingGCC),
		pendRegNext:  c.pendRegNext,
		pendGCCNext:  c.pendGCCNext,
		memReqs:      slices.Clone(c.memReqs),
		memSeq:       c.memSeq,
		credits:      c.credits,
		resends:      make([]resend, len(c.resends)),
		resendNext:   c.resendNext,
		outbox:       make([]*noc.Message, len(c.outbox)),
		validDIPs:    maps.Clone(c.validDIPs),
		directory:    make(map[uint64][]int, len(c.directory)),
		Console:      &Console{},
		Cycle:        c.Cycle,
		InstsIssued:  c.InstsIssued,
		OpsIssued:    c.OpsIssued,
		SendsBlocked: c.SendsBlocked,
		MsgsReturned: c.MsgsReturned,
	}
	for i, cc := range c.Clusters {
		f.Clusters[i] = cc.Clone()
	}
	for i, q := range c.evq {
		f.evq[i] = q.Clone()
	}
	for i, q := range c.msgq {
		f.msgq[i] = q.Clone()
	}
	for i, rs := range c.resends {
		f.resends[i] = resend{msg: rs.msg.Clone(), at: rs.at}
	}
	for i, m := range c.outbox {
		f.outbox[i] = m.Clone()
	}
	//mlint:allow detrange copying into another map; iteration order cannot reach simulated state
	for b, sharers := range c.directory {
		f.directory[b] = slices.Clone(sharers)
	}
	c.Console.mu.Lock()
	f.Console.buf = slices.Clone(c.Console.buf)
	c.Console.mu.Unlock()
	f.Mem.AttachDevice(f.ConsoleBase(), ConsoleWords, f.Console)
	return f
}
