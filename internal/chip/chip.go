// Package chip implements the MAP multi-ALU processor chip (Figure 2): four
// execution clusters interleaving six V-Threads, the M-Switch and C-Switch
// port arbitration, the hardware event and message queues, the network
// output's SEND datapath with GTLB translation and return-to-sender
// throttling, and the network input interface.
//
// One Chip.Step call advances the node by one cycle. The simulation is
// deterministic: arbitration is resolved in fixed order (exception slot,
// event slot, then user slots round-robin within each cluster; clusters in
// index order for shared resources).
package chip

import (
	"fmt"
	"math/bits"

	"repro/internal/cluster"
	"repro/internal/events"
	"repro/internal/gtlb"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/trace"
)

// NoEvent is the NextEvent sentinel meaning "this component will never act
// again without external input" (see DESIGN.md, "The NextEvent contract").
// The leaf packages (mem, noc, events) each define the value to avoid an
// artificial dependency; everything above them aliases one definition.
const NoEvent = mem.NoEvent

// Config gathers the chip's timing and capacity parameters.
type Config struct {
	Mem mem.Config
	Net noc.Config

	IntLat  int64 // integer ALU result latency
	FPLat   int64 // FP add/sub/mul/convert latency
	FDivLat int64 // FP divide latency
	XferLat int64 // cross-cluster register write over the C-Switch
	GCCLat  int64 // global CC broadcast latency
	GTLBLat int64 // GPROBE / SEND translation latency

	CSwitchPorts int // C-Switch transfers per cycle (4, Section 2)

	MsgQueueCap   int   // words per hardware message queue
	EventQueueCap int   // words per event queue (0 = unbounded)
	SendCredits   int   // return-to-sender buffer slots (Section 4.1)
	ResendDelay   int64 // cycles before a returned message is resent
}

// DefaultConfig returns the calibrated chip configuration.
func DefaultConfig() Config {
	return Config{
		Mem:           mem.DefaultConfig(),
		Net:           noc.DefaultConfig(),
		IntLat:        1,
		FPLat:         3,
		FDivLat:       8,
		XferLat:       2,
		GCCLat:        1,
		GTLBLat:       2,
		CSwitchPorts:  4,
		MsgQueueCap:   64,
		EventQueueCap: 0,
		SendCredits:   16,
		ResendDelay:   20,
	}
}

// Queue indices for the per-cluster hardware queues. The paper dedicates
// the event V-Thread's H-Threads by cluster (Section 3.3): cluster 0 runs
// memory synchronization and block status faults, cluster 1 runs LTLB
// misses, clusters 2 and 3 run arriving messages at priorities 0 and 1.
const (
	FaultCluster   = 0
	LTLBCluster    = 1
	MsgPri0Cluster = 2
	MsgPri1Cluster = 3
)

// gtlbEntries is the capacity of the chip's GTLB cache.
const gtlbEntries = 16

type pendingReg struct {
	at      int64
	vthread int
	cl      int
	reg     isa.Reg
	w       isa.Word
}

type pendingGCC struct {
	at  int64
	idx int
	w   isa.Word
}

// reqMeta routes a memory response back to its destination.
type reqMeta struct {
	vthread int
	cl      int
	dst     isa.Reg // destination register for loads (local form)
	isRetry bool    // re-injected by MRETRY: route via regDesc instead
	regDesc uint64
	data    isa.Word // original store data, kept for event records
}

// memReq pairs an outstanding memory request token with its routing
// metadata. A short flat slice replaces the former map: the handful of
// in-flight requests make linear search cheaper than hashing, and the
// backing array is reused so the hot path never allocates.
type memReq struct {
	token uint64
	meta  reqMeta
}

// resend is a returned message buffered for re-injection after backoff.
type resend struct {
	msg *noc.Message
	at  int64
}

// Chip is one M-Machine node's processor.
type Chip struct {
	Cfg   Config    `snap:"derived,fixed at construction; decode validates against it"`
	Node  noc.Coord `snap:"derived,fixed at construction; decode validates against it"`
	Index int       `snap:"derived,fixed at construction"` // linearized node id

	Clusters [isa.NumClusters]*cluster.Cluster
	Mem      *mem.System
	Net      *noc.Network `snap:"derived,the machine's network, bound at construction and by install"`
	GTLB     *gtlb.GTLB

	// Hardware queues. evq[c] is cluster c's event queue; msgq[p] is the
	// priority-p message queue (readable as net on clusters 2/3). excq is
	// the synchronous exception queue.
	evq  [isa.NumClusters]*events.Queue
	msgq [noc.NumPriorities]*events.Queue
	excq *events.Queue

	// Scheduled writebacks, kept in insertion order and compacted in place;
	// pendRegNext/pendGCCNext cache the earliest due cycle so idle cycles
	// skip the scan entirely.
	pendingRegs []pendingReg
	pendingGCC  []pendingGCC
	pendRegNext int64 `snap:"derived,recomputed from decoded pendingRegs"`
	pendGCCNext int64 `snap:"derived,recomputed from decoded pendingGCC"`

	memReqs []memReq
	memSeq  uint64

	// SEND datapath state (Section 4.1, "Throttling").
	credits    int
	resends    []resend
	resendNext int64 `snap:"derived,recomputed from decoded resends"`

	// outbox buffers the messages this chip produced during the current
	// Step (SENDs, hardware acks, resends). The chip never injects into the
	// shared network directly: the machine drains outboxes in node-index
	// order after every chip has stepped, which reproduces the historical
	// inject-during-step order exactly (a chip cannot observe another
	// chip's same-cycle injections) while keeping Chip.Step free of shared
	// state — the property that lets worker goroutines run the chip phase.
	outbox []*noc.Message

	// freeMsgs holds consumed messages for reuse by this chip's SENDs and
	// acknowledgements (see net.go). Only this chip's Step touches it, so
	// chips stepping concurrently share nothing; a decoded or cloned chip
	// starts with none.
	freeMsgs []*noc.Message `snap:"derived,recycled messages, invisible to the simulation"`

	// validDIPs restricts the dispatch instruction pointers user threads
	// may name in SEND ("restricting the set of user accessible DIPs
	// prevents a user handler from monopolizing the network input").
	validDIPs map[uint64]bool

	// directory is the software-managed sharer directory manipulated by
	// the privileged DIRLOG/DIRCNT handler operations (Section 4.3).
	directory map[uint64][]int

	// Console is the node's I/O-bus output device.
	Console *Console

	// Trace, if non-nil, is the sink for simulation events (timeline
	// reconstruction, Figure 9). Step only appends typed records to
	// traceBuf; the owner moves them to the sink with FlushTrace, per chip
	// in node-index order after the chip phase, so chips stepping
	// concurrently never touch the shared sink and every engine observes
	// the same stream.
	Trace    *trace.Recorder `snap:"derived,engine hook, reinstalled by the owner"`
	traceBuf trace.Recorder  `snap:"derived,drained every cycle, empty at snapshot points"`

	Cycle int64

	// Event-engine state (see DESIGN.md, "The NextEvent contract"). wake is
	// the earliest cycle this chip can change state, computed at the end of
	// each Step; idleStalled and idleSendsBlocked record the per-cycle stat
	// side effects of an idle issue scan so SkipCycles can replay them
	// without stepping, keeping skipped runs bit-identical to the naive
	// per-cycle loop. onWake, if set, observes every external lowering of
	// the wake cycle (WakeAt, Touch, LoadProgram) — the machine's due-set
	// hook (see DESIGN.md, "The cycle engine"). It fires only between chip
	// phases, never from inside Step.
	wake             int64              `snap:"derived,recomputed by the first Step after restore"`
	onWake           func(at int64)     `snap:"derived,engine hook, reinstalled by the owner"`
	idleStalled      []*cluster.HThread `snap:"derived,per-cycle idle-scan replay cache, rebuilt by the first Step"`
	idleSendsBlocked uint64             `snap:"derived,per-cycle idle-scan replay cache, rebuilt by the first Step"`

	// msgScratch assembles arriving message words before they are copied
	// into a hardware queue (reused across messages).
	msgScratch []isa.Word `snap:"derived,scratch, fully rewritten per message"`

	// Stats.
	InstsIssued  uint64
	OpsIssued    uint64
	SendsBlocked uint64
	MsgsReturned uint64
	cswitchUsed  int `snap:"derived,per-cycle budget, reset every cycle"` // per-cycle C-Switch port budget consumed
}

// New creates a chip at the given mesh coordinate. net and gdt are shared
// across the machine's nodes.
func New(cfg Config, node noc.Coord, index int, net *noc.Network, gdt *gtlb.Table) *Chip {
	c := shell(cfg, node, index, net, gdt)
	c.credits = cfg.SendCredits
	for i := range c.Clusters {
		c.Clusters[i] = cluster.New(i)
	}
	return c
}

// shell builds what a chip has beyond its state — configuration, memory
// and queues sized from it, bindings, and the console on the I/O bus —
// with empty cluster slots: the part New and Decode share.
func shell(cfg Config, node noc.Coord, index int, net *noc.Network, gdt *gtlb.Table) *Chip {
	c := &Chip{
		Cfg:         cfg,
		Node:        node,
		Index:       index,
		Mem:         mem.NewSystem(cfg.Mem),
		Net:         net,
		GTLB:        gtlb.New(gdt, gtlbEntries),
		excq:        events.NewQueue(cfg.EventQueueCap),
		validDIPs:   make(map[uint64]bool),
		directory:   make(map[uint64][]int),
		Console:     &Console{},
		pendRegNext: NoEvent,
		pendGCCNext: NoEvent,
		resendNext:  NoEvent,
	}
	for i := range c.evq {
		c.evq[i] = events.NewQueue(cfg.EventQueueCap)
	}
	c.Mem.AttachDevice(c.ConsoleBase(), ConsoleWords, c.Console)
	// The priority-0 (request) queue is bounded, triggering the
	// return-to-sender protocol when full; the priority-1 (reply) queue is
	// effectively unbounded since replies are limited by outstanding
	// requests and must always drain to avoid deadlock.
	c.msgq[0] = events.NewQueue(cfg.MsgQueueCap)
	c.msgq[1] = events.NewQueue(0)
	return c
}

// LoadProgram installs a program on an H-Thread slot. Loading wakes the
// chip: a sleeping event engine must rescan for issuable instructions.
func (c *Chip) LoadProgram(vthread, cl int, p *isa.Program, privileged bool) {
	cc := c.Clusters[cl]
	cc.Threads[vthread].Load(p, privileged)
	cc.Live |= 1 << vthread
	cc.Parked &^= 1 << vthread
	c.Touch()
}

// RunningUser counts the chip's running user H-Threads.
func (c *Chip) RunningUser() int {
	n := 0
	for _, cc := range c.Clusters {
		n += bits.OnesCount8(cc.Live & cluster.UserSlots)
	}
	return n
}

// Touch resets the chip's event-engine wake cycle. Callers that mutate
// architectural state from outside the simulation (register pokes, queue
// pushes in tests) must Touch the chip so a sleeping engine rescans it.
func (c *Chip) Touch() {
	c.wake = 0
	if c.onWake != nil {
		c.onWake(0)
	}
}

// SetWakeHook installs fn to observe every external lowering of the chip's
// wake cycle (WakeAt, Touch, LoadProgram). The machine uses it to lower the
// chip's entry in its due-set; the hook must therefore never report a
// cycle later than the chip's true wake. All call sites run on the machine
// goroutine between chip phases, so fn needs no synchronization beyond the
// engine's own fork-join. nil uninstalls.
func (c *Chip) SetWakeHook(fn func(at int64)) { c.onWake = fn }

// RegisterDIP marks a dispatch instruction pointer as legal for user SENDs.
func (c *Chip) RegisterDIP(dip uint64) { c.validDIPs[dip] = true }

// Thread returns the H-Thread context for a slot.
func (c *Chip) Thread(vthread, cl int) *cluster.HThread {
	return c.Clusters[cl].Threads[vthread]
}

// Credits returns the current send-credit count (throttling state).
func (c *Chip) Credits() int { return c.credits }

// EventQueue exposes cluster cl's event queue (for tests and stats).
func (c *Chip) EventQueue(cl int) *events.Queue { return c.evq[cl] }

// MsgQueue exposes the priority-p message queue.
func (c *Chip) MsgQueue(p int) *events.Queue { return c.msgq[p] }

// ExcQueue exposes the synchronous exception queue.
func (c *Chip) ExcQueue() *events.Queue { return c.excq }

// trace stamps e with the current cycle and this node and buffers it.
func (c *Chip) trace(e trace.Event) {
	if c.Trace == nil {
		return
	}
	e.Cycle, e.Node = c.Cycle, int32(c.Index)
	c.traceBuf.Events = append(c.traceBuf.Events, e)
}

// FlushTrace moves the buffered trace records to the Trace sink in
// emission order. The machine calls it per chip, in node-index order, after
// the chip phase of each cycle.
func (c *Chip) FlushTrace() {
	if len(c.traceBuf.Events) != 0 {
		c.Trace.Drain(&c.traceBuf)
	}
}

// send buffers a message for injection into the network. The machine
// injects it (FlushNet) after the chip phase of the current cycle.
func (c *Chip) send(m *noc.Message) { c.outbox = append(c.outbox, m) }

// OutboxLen reports the number of produced-but-undrained outbox messages
// — normally zero between cycles, so a non-zero depth in a stall
// diagnostic points at an aborted chip phase (see guard.Diagnose).
func (c *Chip) OutboxLen() int { return len(c.outbox) }

// PendingResends reports the messages queued for return-to-sender retry,
// a common shape of apparent livelock (the destination keeps refusing).
func (c *Chip) PendingResends() int { return len(c.resends) }

// TakeOutbox appends this chip's buffered messages to dst in the order
// they were produced and clears the outbox — the distributed engine's
// variant of FlushNet: instead of injecting into the local network, the
// messages are shipped to the coordinator, whose authoritative network
// injects them in the same node-index drain order (and so assigns the
// same global sequence numbers) as an in-process run.
func (c *Chip) TakeOutbox(dst []*noc.Message) []*noc.Message {
	dst = append(dst, c.outbox...)
	for i := range c.outbox {
		c.outbox[i] = nil
	}
	c.outbox = c.outbox[:0]
	return dst
}

// FlushNet injects this chip's buffered messages into the shared network,
// in the order they were produced. now must be the cycle the messages were
// buffered on — injection timing (readyAt, sequence numbers) is then
// identical to the historical direct-inject path.
func (c *Chip) FlushNet(now int64) {
	for i, m := range c.outbox {
		c.Net.Inject(now, m)
		c.outbox[i] = nil
	}
	c.outbox = c.outbox[:0]
}

// Step advances the chip one cycle. now must equal the chip's Cycle.
func (c *Chip) Step(now int64) {
	if now != c.Cycle {
		panic(fmt.Sprintf("chip %d: Step(%d) at cycle %d", c.Index, now, c.Cycle))
	}
	c.cswitchUsed = 0

	// 1. Memory responses: writebacks become visible before issue, so a
	// 3-cycle load hit satisfies a dependent issue on cycle t+3.
	for _, resp := range c.Mem.Step(now) {
		c.memResponse(resp)
	}

	// 2. Pending register and GCC writebacks due this cycle.
	c.applyPending(now)

	// 3. Network input: accept arrivals into the hardware message queues,
	// generating the return-to-sender hardware replies (Section 4.1).
	c.networkInput(now)

	// 4. Resend returned messages whose backoff expired.
	c.resendReturned(now)

	// 5. Issue: one instruction per cluster per cycle. The scan records
	// which resident threads stalled and how many SEND evaluations were
	// throttle-blocked, so an idle chip's per-cycle stat side effects can
	// be replayed by SkipCycles without re-scanning.
	c.idleStalled = c.idleStalled[:0]
	sendsBlockedBase := c.SendsBlocked
	issued := false
	for cl := range c.Clusters {
		if c.issueCluster(now, cl) {
			issued = true
		}
	}

	c.Cycle++
	if issued {
		// Something issued: the same thread may issue again next cycle.
		c.wake = now + 1
		return
	}
	c.idleSendsBlocked = c.SendsBlocked - sendsBlockedBase
	// Nothing issued and every resident thread was scanned and found not
	// ready; only a timed event below (or an arrival, handled by the
	// machine) can change that.
	w := c.Mem.NextEvent(now + 1)
	if c.pendRegNext < w {
		w = c.pendRegNext
	}
	if c.pendGCCNext < w {
		w = c.pendGCCNext
	}
	if c.resendNext < w {
		w = c.resendNext
	}
	c.wake = w
}

// NextEvent reports the earliest cycle >= now at which the chip's state can
// change without external input: now if the chip is due to step, the cached
// wake cycle otherwise, NoEvent if the chip is fully idle.
func (c *Chip) NextEvent(now int64) int64 {
	if c.wake < now {
		return now
	}
	return c.wake
}

// WakeAt lowers the chip's wake cycle (the machine calls this when the
// network delivers a message addressed to this node).
func (c *Chip) WakeAt(at int64) {
	if at < c.wake {
		c.wake = at
		if c.onWake != nil {
			c.onWake(at)
		}
	}
}

// SkipCycles fast-forwards the chip over d externally-quiet cycles without
// stepping, replaying the per-cycle stat side effects the naive loop would
// have accrued (thread stall counts and throttle-blocked SEND evaluations,
// recorded by the last idle issue scan). The caller must guarantee the
// window is quiet: no instruction issued in the last Step and no event of
// this chip (or arrival for it) falls inside the window.
func (c *Chip) SkipCycles(d int64) {
	for _, th := range c.idleStalled {
		th.StallCycles += uint64(d)
	}
	c.SendsBlocked += uint64(d) * c.idleSendsBlocked
	c.Cycle += d
}

// applyPending delivers scheduled register writes and GCC broadcasts,
// compacting the pending lists in place (insertion order is preserved, and
// the steady state allocates nothing).
func (c *Chip) applyPending(now int64) {
	if now >= c.pendRegNext {
		rest := c.pendingRegs[:0]
		next := NoEvent
		for _, p := range c.pendingRegs {
			if p.at > now {
				rest = append(rest, p)
				if p.at < next {
					next = p.at
				}
				continue
			}
			th := c.Clusters[p.cl].Threads[p.vthread]
			switch p.reg.Class {
			case isa.RInt, isa.RFP:
				th.File(p.reg.Class).Set(int(p.reg.Index), p.w)
			case isa.RGCC:
				c.Clusters[p.cl].GCC.Set(int(p.reg.Index), p.w)
			}
		}
		c.pendingRegs = rest
		c.pendRegNext = next
	}

	if now >= c.pendGCCNext {
		rest := c.pendingGCC[:0]
		next := NoEvent
		for _, g := range c.pendingGCC {
			if g.at > now {
				rest = append(rest, g)
				if g.at < next {
					next = g.at
				}
				continue
			}
			for cl := range c.Clusters {
				c.Clusters[cl].GCC.Set(g.idx, g.w)
			}
		}
		c.pendingGCC = rest
		c.pendGCCNext = next
	}
}

// schedule queues a register writeback.
func (c *Chip) schedule(at int64, vthread, cl int, reg isa.Reg, w isa.Word) {
	c.pendingRegs = append(c.pendingRegs, pendingReg{at, vthread, cl, reg, w})
	if at < c.pendRegNext {
		c.pendRegNext = at
	}
}

// scheduleGCC queues a global CC broadcast to every cluster's replica.
func (c *Chip) scheduleGCC(at int64, idx int, w isa.Word) {
	c.pendingGCC = append(c.pendingGCC, pendingGCC{at, idx, w})
	if at < c.pendGCCNext {
		c.pendGCCNext = at
	}
}

// takeMeta removes and returns the routing metadata for a request token.
func (c *Chip) takeMeta(token uint64) (reqMeta, bool) {
	for i := range c.memReqs {
		if c.memReqs[i].token == token {
			meta := c.memReqs[i].meta
			c.memReqs = append(c.memReqs[:i], c.memReqs[i+1:]...)
			return meta, true
		}
	}
	return reqMeta{}, false
}

// memResponse routes a completed memory request: load writebacks, store
// completions, or fault events.
func (c *Chip) memResponse(resp mem.Response) {
	meta, ok := c.takeMeta(resp.Req.Token)
	if !ok {
		panic(fmt.Sprintf("chip %d: orphan memory response %+v", c.Index, resp))
	}

	if resp.Fault != mem.FaultNone {
		c.memFault(resp, meta)
		return
	}
	c.trace(trace.Event{Kind: trace.MemComplete, Sub: uint8(resp.Req.Kind), Arg: resp.Req.Addr})
	if !resp.Req.Kind.IsWrite() {
		w := isa.Word{Bits: resp.Data, Ptr: resp.DataPtr}
		if meta.isRetry {
			vt, cl, reg := isa.UnpackRegDesc(meta.regDesc)
			c.Clusters[cl].Threads[vt].File(reg.Class).Set(int(reg.Index), w)
			c.trace(trace.Event{Kind: trace.RetryComplete, Arg: resp.Req.Addr})
		} else {
			th := c.Clusters[meta.cl].Threads[meta.vthread]
			th.File(meta.dst.Class).Set(int(meta.dst.Index), w)
		}
	}
}

// memFault converts a faulting memory response into an asynchronous event
// record on the appropriate cluster's queue (Section 3.3).
func (c *Chip) memFault(resp mem.Response, meta reqMeta) {
	rec := events.Record{
		Kind:  resp.Req.Kind,
		Pre:   resp.Req.Pre,
		Post:  resp.Req.Post,
		VAddr: resp.Req.Addr,
		Data:  isa.Word{Bits: resp.Req.Data, Ptr: resp.Req.DataPtr},
	}
	if meta.isRetry {
		rec.RegDesc = meta.regDesc
	} else {
		rec.RegDesc = isa.RegDesc(meta.vthread, meta.cl, meta.dst)
	}
	var q *events.Queue
	switch resp.Fault {
	case mem.FaultLTLBMiss:
		rec.Type = events.LTLBMiss
		q = c.evq[LTLBCluster]
	case mem.FaultStatus:
		rec.Type = events.BlockStatus
		q = c.evq[FaultCluster]
	case mem.FaultSync:
		rec.Type = events.SyncFault
		q = c.evq[FaultCluster]
	default:
		panic("chip: unknown fault")
	}
	c.trace(trace.Fault(rec.Type, rec.Kind, rec.VAddr))
	q.Push(rec)
}

// submitMem registers metadata and hands a request to the memory system.
func (c *Chip) submitMem(now int64, req mem.Request, meta reqMeta) {
	c.memSeq++
	req.Token = c.memSeq
	c.memReqs = append(c.memReqs, memReq{token: req.Token, meta: meta})
	c.Mem.Submit(now, req)
}

// Quiescent reports whether the chip has no outstanding work besides
// whatever threads are loaded: no in-flight memory ops, pending writebacks,
// queued events or messages, or buffered resends.
func (c *Chip) Quiescent() bool {
	if c.Mem.Pending() > 0 || len(c.pendingRegs) > 0 || len(c.pendingGCC) > 0 ||
		len(c.resends) > 0 || len(c.outbox) > 0 || !c.excq.Empty() {
		return false
	}
	for _, q := range c.evq {
		if !q.Empty() {
			return false
		}
	}
	for _, q := range c.msgq {
		if !q.Empty() {
			return false
		}
	}
	return true
}
