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
	"repro/internal/events"
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

func encodeReg(w *snap.Writer, r isa.Reg) {
	w.U64(uint64(r.Class))
	w.U64(uint64(r.Index))
	w.I64(int64(r.Cluster))
}

func decodeReg(r *snap.Reader) isa.Reg {
	g := isa.Reg{
		Class:   isa.RegClass(r.U64()),
		Index:   uint8(r.U64()),
		Cluster: int8(r.I64()),
	}
	if r.Err() == nil {
		bad := g.Class > isa.RSpec ||
			(g.Cluster != isa.ClusterSelf && (g.Cluster < 0 || g.Cluster >= isa.NumClusters))
		switch g.Class {
		case isa.RInt:
			bad = bad || int(g.Index) >= isa.NumIntRegs
		case isa.RFP:
			bad = bad || int(g.Index) >= isa.NumFPRegs
		case isa.RGCC:
			bad = bad || int(g.Index) >= isa.NumGCCRegs
		}
		if bad {
			r.Fail(fmt.Errorf("chip: bad snapshot register %d/%d/%d", g.Class, g.Index, g.Cluster))
		}
	}
	return g
}

func checkSlot(r *snap.Reader, vthread, cl int) {
	if r.Err() == nil && (vthread < 0 || vthread >= isa.NumVThreads || cl < 0 || cl >= isa.NumClusters) {
		r.Fail(fmt.Errorf("chip: bad snapshot thread slot v%d c%d", vthread, cl))
	}
}

// EncodeState writes the chip's complete cross-cycle state.
func (c *Chip) EncodeState(w *snap.Writer) {
	w.I64(c.Cycle)
	w.U64(c.InstsIssued)
	w.U64(c.OpsIssued)
	w.U64(c.SendsBlocked)
	w.U64(c.MsgsReturned)
	w.Int(c.credits)
	w.U64(c.memSeq)

	for _, cc := range c.Clusters {
		cc.EncodeState(w)
	}
	c.excq.EncodeState(w)
	for _, q := range c.evq {
		q.EncodeState(w)
	}
	for _, q := range c.msgq {
		q.EncodeState(w)
	}

	w.Len(len(c.pendingRegs))
	for i := range c.pendingRegs {
		p := &c.pendingRegs[i]
		w.I64(p.at)
		w.Int(p.vthread)
		w.Int(p.cl)
		encodeReg(w, p.reg)
		w.U64(p.w.Bits)
		w.Bool(p.w.Ptr)
	}
	w.Len(len(c.pendingGCC))
	for i := range c.pendingGCC {
		g := &c.pendingGCC[i]
		w.I64(g.at)
		w.Int(g.idx)
		w.U64(g.w.Bits)
		w.Bool(g.w.Ptr)
	}

	w.Len(len(c.memReqs))
	for i := range c.memReqs {
		q := &c.memReqs[i]
		w.U64(q.token)
		w.Int(q.meta.vthread)
		w.Int(q.meta.cl)
		encodeReg(w, q.meta.dst)
		w.Bool(q.meta.isRetry)
		w.U64(q.meta.regDesc)
		w.U64(q.meta.data.Bits)
		w.Bool(q.meta.data.Ptr)
	}

	w.Len(len(c.resends))
	for i := range c.resends {
		w.I64(c.resends[i].at)
		c.Net.EncodeMessage(w, c.resends[i].msg)
	}
	w.Len(len(c.outbox))
	for _, m := range c.outbox {
		c.Net.EncodeMessage(w, m)
	}

	dips := w.Stage(len(c.validDIPs))[:0]
	for d := range c.validDIPs {
		dips = append(dips, d)
	}
	slices.Sort(dips)
	w.U64s(dips)

	blocks := make([]uint64, 0, len(c.directory))
	for b := range c.directory {
		blocks = append(blocks, b)
	}
	slices.Sort(blocks)
	w.Len(len(blocks))
	for _, b := range blocks {
		w.U64(b)
		sharers := c.directory[b]
		w.Len(len(sharers))
		for _, s := range sharers {
			w.Int(s)
		}
	}

	c.Console.mu.Lock()
	w.Bytes(c.Console.buf)
	c.Console.mu.Unlock()

	c.GTLB.EncodeState(w)
	c.Mem.EncodeState(w)
}

// DecodeChipState reads a chip written by EncodeState into a new chip
// bound to net and gdt, with what New gives a chip beyond its state: the
// configured queue capacities and the console on the I/O bus. It is
// assembled from the decoded parts instead of going through New (whose
// memory system and cache the decode would immediately replace), and like
// a Clone it has no trace sink or wake hook and a wake cycle of zero. A
// full restore decodes the chips before the network that follows them in
// the stream: net then is the machine's current one, which has the
// decoded one's shape, and install rebinds the chips.
func DecodeChipState(r *snap.Reader, cfg Config, node noc.Coord, index int, net *noc.Network, gdt *gtlb.Table) *Chip {
	c := &Chip{
		Cfg:         cfg,
		Node:        node,
		Index:       index,
		Net:         net,
		Console:     &Console{},
		validDIPs:   make(map[uint64]bool),
		directory:   make(map[uint64][]int),
		pendRegNext: NoEvent,
		pendGCCNext: NoEvent,
		resendNext:  NoEvent,
	}
	c.Cycle = r.I64()
	c.InstsIssued = r.U64()
	c.OpsIssued = r.U64()
	c.SendsBlocked = r.U64()
	c.MsgsReturned = r.U64()
	c.credits = r.Int()
	c.memSeq = r.U64()

	for i := range c.Clusters {
		c.Clusters[i] = cluster.DecodeClusterState(r, i)
	}
	c.excq = events.DecodeQueueState(r, cfg.EventQueueCap)
	for i := range c.evq {
		c.evq[i] = events.DecodeQueueState(r, cfg.EventQueueCap)
	}
	// Request queue bounded, reply queue unbounded: see New.
	c.msgq[0] = events.DecodeQueueState(r, cfg.MsgQueueCap)
	c.msgq[1] = events.DecodeQueueState(r, 0)

	np := r.Len(maxPending)
	for i := 0; i < np; i++ {
		p := pendingReg{at: r.I64(), vthread: r.Int(), cl: r.Int(), reg: decodeReg(r)}
		p.w = isa.Word{Bits: r.U64(), Ptr: r.Bool()}
		checkSlot(r, p.vthread, p.cl)
		c.pendingRegs = append(c.pendingRegs, p)
		if p.at < c.pendRegNext {
			c.pendRegNext = p.at
		}
	}
	ng := r.Len(maxPending)
	for i := 0; i < ng; i++ {
		g := pendingGCC{at: r.I64(), idx: r.Int()}
		g.w = isa.Word{Bits: r.U64(), Ptr: r.Bool()}
		if r.Err() == nil && (g.idx < 0 || g.idx >= isa.NumGCCRegs) {
			r.Fail(fmt.Errorf("chip: bad snapshot GCC index %d", g.idx))
		}
		c.pendingGCC = append(c.pendingGCC, g)
		if g.at < c.pendGCCNext {
			c.pendGCCNext = g.at
		}
	}

	nm := r.Len(maxPending)
	for i := 0; i < nm; i++ {
		q := memReq{token: r.U64()}
		q.meta.vthread = r.Int()
		q.meta.cl = r.Int()
		q.meta.dst = decodeReg(r)
		q.meta.isRetry = r.Bool()
		q.meta.regDesc = r.U64()
		q.meta.data = isa.Word{Bits: r.U64(), Ptr: r.Bool()}
		checkSlot(r, q.meta.vthread, q.meta.cl)
		if r.Err() == nil {
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
				if vt >= isa.NumVThreads || cl >= isa.NumClusters ||
					(reg.Class != isa.RNone && reg.Class != isa.RInt && reg.Class != isa.RFP) ||
					int(reg.Index) >= isa.NumIntRegs {
					r.Fail(fmt.Errorf("chip: snapshot retry descriptor %#x names no register", q.meta.regDesc))
				}
			} else if cls := q.meta.dst.Class; cls != isa.RNone && cls != isa.RInt && cls != isa.RFP {
				r.Fail(fmt.Errorf("chip: snapshot memory request destination class %d", cls))
			}
		}
		c.memReqs = append(c.memReqs, q)
	}

	nr := r.Len(maxPending)
	for i := 0; i < nr; i++ {
		rs := resend{at: r.I64()}
		rs.msg = net.DecodeMessage(r)
		c.resends = append(c.resends, rs)
		if rs.at < c.resendNext {
			c.resendNext = rs.at
		}
	}
	no := r.Len(maxPending)
	for i := 0; i < no; i++ {
		c.outbox = append(c.outbox, net.DecodeMessage(r))
	}

	for _, d := range r.U64s(maxMapLen) {
		c.validDIPs[d] = true
	}
	nb := r.Len(maxMapLen)
	for i := 0; i < nb; i++ {
		b := r.U64()
		ns := r.Len(maxMapLen)
		sharers := make([]int, 0, ns)
		for j := 0; j < ns; j++ {
			sharers = append(sharers, r.Int())
		}
		if r.Err() != nil {
			break
		}
		c.directory[b] = sharers
	}

	c.Console.buf = r.Bytes(maxConsole)

	c.GTLB = gtlb.DecodeGTLBState(r, gdt, gtlbEntries)
	c.Mem = mem.DecodeSystemState(r, cfg.Mem)
	c.Mem.AttachDevice(c.ConsoleBase(), ConsoleWords, c.Console)
	if r.Err() == nil {
		// Cross-check the decoded memory system against the routing
		// metadata: every in-flight response must have a request entry
		// (memResponse panics on orphans), and a successful read must name
		// a register destination (its writeback goes through File, which
		// only serves Int/FP).
		for _, resp := range c.Mem.PendingResponses() {
			var meta *reqMeta
			for j := range c.memReqs {
				if c.memReqs[j].token == resp.Req.Token {
					meta = &c.memReqs[j].meta
					break
				}
			}
			if meta == nil {
				r.Fail(fmt.Errorf("chip: snapshot response token %d has no request metadata", resp.Req.Token))
				break
			}
			if resp.Fault == mem.FaultNone && !resp.Req.Kind.IsWrite() && !meta.isRetry &&
				meta.dst.Class != isa.RInt && meta.dst.Class != isa.RFP {
				r.Fail(fmt.Errorf("chip: snapshot read response token %d routes to no register", resp.Req.Token))
				break
			}
		}
	}
	return c
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
