// Package machine assembles a complete M-Machine: a 3-D mesh of MAP nodes
// (Figure 1), the shared global destination table, and the deterministic
// cycle loop that advances every node and the network in lock step.
//
// The lifecycle is New(Config) -> load programs / map pages -> Run (or
// Step/StepAll) -> Close. There are two cycle loops: the naive
// per-cycle reference (Naive=true / StepAll), and the event-driven engine,
// whose one chip phase steps only the chips that are due and fast-forwards
// idle stretches. Config.Workers only chooses how many goroutines run that
// chip phase. Every combination is bit-identical in every observable way;
// see DESIGN.md ("The cycle engine").
//
// Machines checkpoint: Save serializes the complete simulation state to
// a versioned stream, Restore replaces a compatible machine's state
// all-or-nothing (a corrupt or mismatched stream errors and leaves the
// machine untouched; a good one installs new chip, network and GDT
// objects), and Fork clones a machine for what-if runs,
// sharing SDRAM pages copy-on-write. Snapshots are engine-agnostic: a stream
// saved under one engine restores and continues bit-identically under
// any other (DESIGN.md, "Checkpoint/restore").
package machine

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/chip"
	"repro/internal/cluster"
	"repro/internal/gtlb"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/snap"
	"repro/internal/trace"
)

// ErrStopped is wrapped into the error RunLoop returns when an
// external stop request (RequestStop, or a Close racing the run) aborts
// the run before completion. The machine state is a consistent
// between-cycles state — the run simply ended early — so it can be
// inspected, snapshotted, or resumed. Detect with errors.Is.
var ErrStopped = errors.New("run stopped")

// ErrCycleLimit is wrapped into the error Run returns when the machine is
// still busy after maxCycles — cycle-budget exhaustion, as opposed to a
// thread fault or a stop request. Detect with errors.Is; supervisors use
// it to classify global-budget exhaustion (internal/guard).
var ErrCycleLimit = errors.New("no completion")

// NoEvent is the NextEvent sentinel meaning "no component will ever act
// again without external input" (see DESIGN.md, "The NextEvent contract").
const NoEvent = chip.NoEvent

// Config describes a machine.
type Config struct {
	Dims noc.Coord // mesh dimensions
	Chip chip.Config

	// Workers is the number of goroutines the event engine's chip phase runs
	// on: the mesh is cut into that many contiguous ranges, a fork-join per
	// busy cycle steps the first on the calling goroutine and each other on
	// a persistent worker (see DESIGN.md, "The cycle engine"). 0 or 1 runs
	// the same phase inline on the caller; -1 uses runtime.GOMAXPROCS(0);
	// values above the node count are clamped. The result is bit-identical
	// for every value (enforced by TestDeterminismThreeWay in core); the
	// naive reference engine never uses the workers.
	Workers int `snap:"derived,engine selection, never affects simulated results"`
}

// DefaultConfig returns a 2x1x1 machine (the two-node setup of the paper's
// Table 1 / Figure 9 measurements) with calibrated chip timing.
func DefaultConfig() Config {
	return Config{Dims: noc.Coord{X: 2, Y: 1, Z: 1}, Chip: chip.DefaultConfig()}
}

// Machine is a collection of nodes connected by the mesh.
type Machine struct {
	Cfg   Config
	Net   *noc.Network
	GDT   *gtlb.Table
	Chips []*chip.Chip

	Cycle int64

	// Naive selects the reference engine: Step advances every component
	// every cycle (StepAll) and Run never fast-forwards. The default
	// event-driven engine skips components whose NextEvent lies in the
	// future and jumps the clock over machine-wide idle stretches; both
	// engines produce bit-identical state, cycle counts, fault behavior,
	// and trace output (enforced by TestDeterminismEngines in core).
	Naive bool `snap:"derived,engine selection, never affects simulated results"`

	// nextPPN allocates physical pages per node for MapLocal; runtime
	// handlers allocate from a separate high region (see AllocBase).
	nextPPN []uint64

	// ds is the chip scheduler every engine steps through (dueset.go).
	// workers is the normalized Config.Workers (>= 2 means the chip phase
	// runs on the pool); pool is the lazily started goroutine pool, and
	// closed records Close so a later Step cannot resurrect it.
	ds      *dueSet   `snap:"derived,wake caches, re-derived by install's WakeAll"`
	workers int       `snap:"derived,normalized engine config"`
	pool    *chipPool `snap:"derived,goroutine pool, rebuilt lazily"`
	closed  bool      `snap:"derived,process-lifetime flag"`

	// Supervision plumbing (DESIGN.md, "Supervised runs & fault
	// injection"). runMu serializes RunLoop against Close, so a
	// session teardown can close a machine whose run is still in flight:
	// Close raises stopReq, the run observes it at its next loop head and
	// returns ErrStopped, and Close then proceeds under the lock. stopReq
	// is also the watchdog stop flag guard sets out-of-band; it is polled
	// only at the run-loop head (an existing O(1) sync point), so the
	// per-cycle hot path gains one uncontended atomic load and simulated
	// state is never affected — stopping only decides where the run ends,
	// never what any cycle computes. cycleGauge mirrors Cycle at the same
	// point so monitors on other goroutines can observe progress without
	// racing the engine.
	runMu      sync.Mutex   `snap:"derived,supervision plumbing"`
	stopReq    atomic.Bool  `snap:"derived,supervision plumbing"`
	cycleGauge atomic.Int64 `snap:"derived,supervision plumbing"`

	// Run-loop activity counters (DESIGN.md, "Run-loop activity
	// counters"): the loop head would otherwise scan every chip every busy
	// cycle; these cache UserDone/Quiescent/instructions-issued per chip
	// and maintain the machine totals incrementally. A chip's contribution
	// can only change on a cycle it steps (every thread transition, queue
	// push, and issue happens inside Chip.Step, and its outbox is drained
	// before the counters are read), so noteStepped refreshes exactly the
	// stepped chips — O(active) per cycle. recomputeActive rebuilds
	// everything at RunLoop entry and in install, covering external
	// mutations (program loads, pokes) between runs.
	act         Activity `snap:"derived,rebuilt by install's recomputeActive"` // the machine totals
	chipRunning []int    `snap:"derived,rebuilt by install's recomputeActive"`
	chipBusy    []bool   `snap:"derived,rebuilt by install's recomputeActive"`
	chipIssued  []uint64 `snap:"derived,rebuilt by install's recomputeActive"`
}

// Reserved physical layout (words). The LPT base comes from the memory
// config; the runtime scratch and page allocator sit just above it.
const (
	// FirstMapPPN is the first physical page used by MapLocal.
	FirstMapPPN = 16
)

// ScratchBase returns the physical address of the runtime scratch area.
func ScratchBase(c mem.Config) uint64 {
	return c.LPT.Base + c.LPT.Entries*mem.PTEWords
}

// AllocCounterAddr returns the physical word holding the runtime page
// allocator's next free PPN.
func AllocCounterAddr(c mem.Config) uint64 { return ScratchBase(c) + 64 }

// AllocBasePPN returns the first PPN handed out by the runtime allocator.
func AllocBasePPN(c mem.Config) uint64 {
	return (AllocCounterAddr(c) + 64 + mem.PageWords) / mem.PageWords
}

// newShell builds a machine with its per-node bookkeeping allocated and
// the worker count normalized — everything that is environment — and no
// simulated state yet (install puts that in): the part of construction
// New and Fork share.
func newShell(cfg Config) *Machine {
	nodes := cfg.Dims.X * cfg.Dims.Y * cfg.Dims.Z
	m := &Machine{
		Cfg:         cfg,
		Chips:       make([]*chip.Chip, nodes),
		chipRunning: make([]int, nodes),
		chipBusy:    make([]bool, nodes),
		chipIssued:  make([]uint64, nodes),
	}
	m.workers = cfg.Workers
	if m.workers < 0 {
		m.workers = runtime.GOMAXPROCS(0)
	}
	if m.workers > len(m.Chips) {
		m.workers = len(m.Chips)
	}
	m.ds = newDueSet(m.Chips, m.workers)
	return m
}

// MaxAxis is the largest mesh extent along any one axis: a trace record's
// peer fields hold coordinates up to trace.MaxCoord.
const MaxAxis = trace.MaxCoord + 1

// Bounds on the configuration fields that size what New allocates or that
// the memory model divides by. New panics on a configuration outside them
// and ReadShardConfig refuses one, so a corrupt shard frame header is an
// error, not a panic or a fatal out-of-memory in the process reading it.
const (
	maxNodes      = MaxAxis // nodes per mesh: the longest mesh msim builds
	maxCacheLines = 1 << 20 // 512x the paper's 2048
	maxLTLB       = 1 << 16 // the LTLB's snapshot decode bound
	maxSDRAMWords = 1 << 30 // 1024x the paper's 1 MW
	maxQueueWords = 1 << 20 // per hardware queue; 0 is unbounded
	maxCredits    = 1 << 16
)

// check reports the first field of cfg outside its bound.
func (cfg Config) check() error {
	if d := cfg.Dims; min(d.X, d.Y, d.Z) < 1 || max(d.X, d.Y, d.Z) > MaxAxis || d.X*d.Y*d.Z > maxNodes {
		return fmt.Errorf("mesh %v outside 1..%d nodes per axis (the trace record's coordinate range) and %d in all", d, MaxAxis, maxNodes)
	}
	k, m := cfg.Chip, cfg.Chip.Mem
	for _, f := range []struct {
		name      string
		v, lo, hi uint64
	}{
		{"cache lines", uint64(m.Cache.Lines), 1, maxCacheLines},
		{"LTLB entries", uint64(m.LTLBEntries), 1, maxLTLB},
		{"SDRAM words", m.SDRAM.Words, 1, maxSDRAMWords},
		{"SDRAM row words", m.SDRAM.RowWords, 1, maxSDRAMWords},
		{"message queue words", uint64(k.MsgQueueCap), 0, maxQueueWords},
		{"event queue words", uint64(k.EventQueueCap), 0, maxQueueWords},
		{"send credits", uint64(k.SendCredits), 0, maxCredits},
	} {
		if f.v < f.lo || f.v > f.hi {
			return fmt.Errorf("%d %s outside %d..%d", int64(f.v), f.name, f.lo, f.hi)
		}
	}
	// New writes the runtime page allocator's counter above the LPT.
	if m.LPT.Base >= m.SDRAM.Words || m.LPT.Entries >= m.SDRAM.Words || AllocCounterAddr(m) >= m.SDRAM.Words {
		return fmt.Errorf("the LPT at %#x and the runtime scratch above it do not fit in %d SDRAM words", m.LPT.Base, m.SDRAM.Words)
	}
	return nil
}

// New builds the machine: one chip per mesh coordinate, all sharing the
// network and GDT. It panics on a configuration outside the bounds above.
func New(cfg Config) *Machine {
	if err := cfg.check(); err != nil {
		panic("machine: " + err.Error())
	}
	top := &Machine{Net: noc.New(cfg.Dims, cfg.Chip.Net), GDT: &gtlb.Table{}}
	top.nextPPN = make([]uint64, top.Net.NumNodes())
	chips := make([]*chip.Chip, top.Net.NumNodes())
	for i := range chips {
		chips[i] = chip.New(cfg.Chip, top.Net.CoordOf(i), i, top.Net, top.GDT)
		// Initialize the runtime page allocator counter.
		chips[i].Mem.SDRAM.Write(AllocCounterAddr(cfg.Chip.Mem), AllocBasePPN(cfg.Chip.Mem), false)
		top.nextPPN[i] = FirstMapPPN
	}
	m := newShell(cfg)
	m.install(0, chips, top)
	return m
}

// install is the one place simulated state enters a machine: chips become
// m.Chips[lo:lo+len(chips)], and a non-nil top supplies the state above
// the chips — network, GDT, clock and page allocators (the only fields
// of it read). New installs fresh parts, Fork cloned ones, Restore and
// AdoptShard decoded ones; the caller has finished building and
// validating them, so nothing here can fail and the machine is never
// seen half replaced. What is environment rather than state stays or is
// carried over: engine selection, the started pool and the fault probe
// live in the shell and the due-set, each new chip takes over its
// predecessor's trace sink and gets the wake hook from attach, and every
// installed chip is pointed at the machine's network (a full restore
// decodes chips before the network that replaces it). WakeAll and
// recomputeActive then re-derive the engine caches from the new state.
func (m *Machine) install(lo int, chips []*chip.Chip, top *Machine) {
	if top != nil {
		m.Net, m.GDT, m.Cycle, m.nextPPN = top.Net, top.GDT, top.Cycle, top.nextPPN
	}
	for k, c := range chips {
		if old := m.Chips[lo+k]; old != nil {
			c.Trace = old.Trace
		}
		c.Net = m.Net
		m.ds.attach(lo+k, c)
	}
	m.WakeAll()
	m.recomputeActive()
}

// Close materializes the deferred idle-chip bookkeeping (see Step) and
// stops the Workers-1 pool goroutines, if they were started. It is
// optional: an unreachable Machine releases them via a GC cleanup.
// Close is idempotent — a second Close (including one racing the GC
// cleanup after a finished Run) is a harmless no-op — and safe to call
// concurrently with an in-flight Run or RunLoop: it raises the stop
// request, waits for the run to observe it at its next loop head and
// return ErrStopped, and only then tears the pool down (the shutdown
// ordering a session server needs). A machine with Workers >= 2 must not
// be stepped after Close — its chip phase panics if it is.
func (m *Machine) Close() {
	m.stopReq.Store(true)
	m.runMu.Lock()
	defer m.runMu.Unlock()
	// The request has served its purpose once the lock is held; do not
	// poison a caller who (historically legal on serial machines) runs
	// again after Close.
	m.stopReq.Store(false)
	if m.closed {
		return
	}
	m.closed = true
	m.syncDeferred()
	if m.pool != nil {
		m.pool.stop()
	}
}

// RequestStop asks an in-flight Run or RunLoop to return at its next
// loop head with an error wrapping ErrStopped. It is safe from any
// goroutine — this is the watchdog stop flag (see internal/guard): the
// flag is polled only at the run-loop head, so it cannot change any
// simulated state, only where the run ends. The request is sticky until
// ClearStop; a Run entered with the flag raised returns immediately.
func (m *Machine) RequestStop() { m.stopReq.Store(true) }

// StopRequested reports a pending stop request, for a loop that runs this
// machine's legs elsewhere (the dist coordinator) and must answer it at
// its own loop heads.
func (m *Machine) StopRequested() bool { return m.stopReq.Load() }

// ClearStop lowers the stop flag. Supervisors call it before starting a
// supervised run so a stale request from a previous run cannot abort the
// new one.
func (m *Machine) ClearStop() { m.stopReq.Store(false) }

// CycleGauge reports the machine cycle most recently observed at a run's
// loop head. Unlike reading Cycle directly, it is safe from any
// goroutine while a run is in flight, which is what watchdog monitors
// need to distinguish a livelocked-but-advancing simulation from a
// wedged one. Between runs it lags Cycle (it is only updated inside
// RunLoop).
func (m *Machine) CycleGauge() int64 { return m.cycleGauge.Load() }

// SetFaultProbe installs fn to be called immediately before every chip step,
// with the chip's node index and the current cycle — the fault-injection
// hook (see internal/faultinject). With Workers >= 2 fn runs on the pool's
// goroutines and the caller's (the first range), concurrently for distinct
// nodes, so it must be safe for that; a panic out of fn is contained exactly
// like a panic out of the chip step. Install probes only between runs (the
// same contract as program loads); nil removes the probe. Probes are for
// tests and fault drills — the nil check they cost per stepped chip is the
// entire production overhead.
func (m *Machine) SetFaultProbe(fn func(node int, cycle int64)) { m.ds.probe = fn }

// NumNodes returns the node count.
func (m *Machine) NumNodes() int { return len(m.Chips) }

// Chip returns node i's processor.
func (m *Machine) Chip(i int) *chip.Chip { return m.Chips[i] }

// StepAll advances the whole machine one cycle the naive way: every chip
// and the network step unconditionally. This is the reference (debug)
// engine the event-driven Step is validated against. The engines may be
// interleaved on one machine, so StepAll keeps the event engine's caches
// honest: chips the event engine left behind are caught up first, and this
// cycle's arrival wake-ups lower the due-set through the hook. Nothing
// else is needed: StepAll never
// raises a due entry, and a forced step of a chip that is not due changes
// nothing, so every entry stays at or before its chip's true wake.
func (m *Machine) StepAll() {
	now := m.Cycle
	m.syncDeferred()
	for i, c := range m.Chips {
		if m.ds.probe != nil {
			m.ds.probe(i, now)
		}
		c.Step(now)
	}
	for i := range m.Chips {
		m.drain(i, now)
	}
	m.Net.Step(now)
	// The wakes are unobservable under naive stepping (only the event
	// engine consults wake cycles), so this costs nothing but keeps the
	// due-set exact for a later event-engine step.
	m.wakeArrivals(now)
	m.Cycle++
}

// Step advances the whole machine one cycle. The event-driven engine steps
// only the chips whose NextEvent is due (dueSet.stepRange, inline or on the
// Config.Workers pool); a chip that is not due is not touched at all — its
// per-cycle idle bookkeeping is deferred and replayed in one SkipCycles
// batch when it next becomes due, or at the next sync point. Step is such a
// sync point, like Run returning, StepAll, Save, Fork and Close, so every
// externally observed state is bit-identical to StepAll's. The network walk runs only when a message can move.
func (m *Machine) Step() {
	m.step()
	m.syncDeferred()
}

// step is Step without the sync point. The chip phase runs on the pool
// when there is one (Config.Workers >= 2), else inline.
func (m *Machine) step() {
	if m.Naive {
		m.StepAll()
		return
	}
	now := m.Cycle
	if m.workers >= 2 {
		m.stepPooled(now)
	} else {
		m.ds.stepInline(now)
	}
	for k := range m.ds.ranges {
		r := &m.ds.ranges[k]
		for _, i := range r.stepped {
			m.drain(i, now)
		}
		r.stepped = r.stepped[:0]
	}
	if m.Net.NeedsStep(now) {
		m.Net.Step(now)
	}
	m.wakeArrivals(now)
	m.Cycle++
}

// StepRange runs the chip phase of cycle now over chips [lo, hi) on the
// calling goroutine and returns the chips it stepped, ascending, appended
// to stepped — the entry point of a transport that owns part of the mesh
// and does its own drain (internal/dist takes the stepped chips' outboxes
// instead of injecting them). Chips that were not due are caught up by the
// next sync point (EncodeShard).
func (m *Machine) StepRange(lo, hi int, now int64, stepped []int) []int {
	r := chipRange{lo: lo, hi: hi, stepped: stepped}
	m.ds.stepRange(&r, now)
	return r.stepped
}

// wakeArrivals wakes every chip that has delivered-but-unconsumed network
// messages: a delivery at cycle now is consumed by the destination's
// network input interface at now+1, and a node whose queues are still
// backed up must retry every cycle (the return-to-sender protocol depends
// on it). The network keeps the node set (noc.Network.ArrivalNodes), so the
// walk costs O(affected nodes) instead of O(nodes).
func (m *Machine) wakeArrivals(now int64) {
	for _, i := range m.Net.ArrivalNodes() {
		m.Chips[i].WakeAt(now + 1)
	}
}

// drain moves chip i's buffered cycle output into the shared structures —
// trace records to the sink, outbox messages into the network — and
// refreshes its activity counters. Callers visit chips in node-index order.
// A chip cannot observe another chip's same-cycle injections, so draining
// after the chip phase is bit-identical to the historical
// inject-during-step order — and it is the only point where per-chip work
// touches shared mutable state, which is what lets workers run the phase.
func (m *Machine) drain(i int, now int64) {
	c := m.Chips[i]
	c.FlushTrace()
	c.FlushNet(now)
	m.noteStepped(i)
}

// NextEvent reports the earliest cycle >= now at which any component of the
// machine can change state without new external input, NoEvent if the
// machine is permanently idle (deadlocked or finished). It scans every
// chip, so it is exact even after a caller stepped chips itself; the run
// loop reads the due-set's cached minima instead (see Run).
func (m *Machine) NextEvent(now int64) int64 {
	next := m.Net.NextEvent(now)
	for _, c := range m.Chips {
		if w := c.NextEvent(now); w < next {
			next = w
		}
	}
	return next
}

// UserDone reports whether every loaded user H-Thread has halted or
// faulted.
func (m *Machine) UserDone() bool {
	for i := range m.Chips {
		if m.Chips[i].RunningUser() > 0 {
			return false
		}
	}
	return true
}

// noteStepped refreshes chip i's cached activity contributions after it
// stepped (its outbox must already be drained, so the quiescence check
// sees the cross-cycle state). Chips that skip a cycle cannot change any
// of the three quantities, so the loop head's totals stay exact while
// only stepped chips are visited.
func (m *Machine) noteStepped(i int) {
	c := m.Chips[i]
	if n := c.RunningUser(); n != m.chipRunning[i] {
		m.act.Running += n - m.chipRunning[i]
		m.chipRunning[i] = n
	}
	if b := !c.Quiescent(); b != m.chipBusy[i] {
		if b {
			m.act.Busy++
		} else {
			m.act.Busy--
		}
		m.chipBusy[i] = b
	}
	if v := c.InstsIssued; v != m.chipIssued[i] {
		m.act.Issued += v - m.chipIssued[i]
		m.chipIssued[i] = v
	}
}

// recomputeActive rebuilds the run-loop activity counters from scratch —
// the O(nodes) pass RunLoop pays once at entry (and install pays
// once) so that state mutated from outside the simulation is
// observed; within a run noteStepped keeps them exact incrementally.
func (m *Machine) recomputeActive() {
	m.act = Activity{}
	for i, c := range m.Chips {
		m.chipRunning[i] = c.RunningUser()
		m.act.Running += m.chipRunning[i]
		m.chipBusy[i] = !c.Quiescent()
		if m.chipBusy[i] {
			m.act.Busy++
		}
		m.chipIssued[i] = c.InstsIssued
		m.act.Issued += c.InstsIssued
	}
}

// Quiescent reports whether no node or the network has outstanding work.
func (m *Machine) Quiescent() bool {
	if !m.Net.Quiescent() {
		return false
	}
	for _, c := range m.Chips {
		if !c.Quiescent() {
			return false
		}
	}
	return true
}

// quietWindow is the number of consecutive idle cycles Run requires before
// declaring the machine done: user threads may halt while event handlers
// are still mid-record, so quiescence is confirmed by observing no
// instruction issue anywhere with all queues drained.
const quietWindow = 32

// QuietWindow is quietWindow for external bound arithmetic: a leg's cycle
// bound is padded by this many detection cycles.
const QuietWindow = quietWindow

// Activity is what the run loop knows about the chips between two cycles:
// running user H-Threads, non-quiescent chips, and instructions issued so
// far. RunLoop reads the machine's incrementally maintained totals (see
// noteStepped); the dist coordinator sums its shards' ShardActivity.
type Activity struct {
	Running, Busy int
	Issued        uint64
}

// quiet reports whether nothing is running or queued anywhere.
func (a Activity) quiet(net *noc.Network) bool {
	return a.Running == 0 && a.Busy == 0 && net.Quiescent()
}

// QuietLoop is the completion policy of one leg — a run phase — as a
// value: the leg is done once the machine has been quiet, with no
// instruction issued, for quietWindow consecutive loop heads, and it
// gives up at its bound. One loop spans the leg however many RunLoop
// calls, on whichever transport, it takes: a caller that stops a leg
// early keeps the loop (core.Position, the dist coordinator's
// checkpoints), so the leg ends at the same cycle as one never stopped.
type QuietLoop struct {
	span       int64 // the leg's cycle allowance, excluding the quiet window
	start      int64 // the leg's first cycle, once begun
	idle       int64 // consecutive quiet loop heads
	prevIssued uint64
	begun      bool
	held       bool // the head at the current cycle is made (Hold)
}

// NewLeg returns the loop of a leg of at most maxCycles cycles (plus the
// detection window). The first runner to run it begins it at its own
// cycle and activity.
func NewLeg(maxCycles int64) QuietLoop { return QuietLoop{span: maxCycles} }

// Begin anchors a loop that has not begun at cycle, with a the activity
// there; it does nothing to a begun loop.
func (q *QuietLoop) Begin(cycle int64, a Activity) {
	if !q.begun {
		q.start, q.prevIssued, q.begun = cycle, a.Issued, true
	}
}

// Begun reports whether a runner has begun the loop.
func (q *QuietLoop) Begun() bool { return q.begun }

// Bound is the cycle at which the leg gives up.
func (q *QuietLoop) Bound() int64 { return q.start + q.span + quietWindow }

// Head is the loop-head check, made once before every stepped cycle. It
// reports whether the leg is done; Ran then gives its length. After Hold
// it only releases the hold: that cycle's check is already made.
func (q *QuietLoop) Head(a Activity, net *noc.Network) bool {
	if q.held {
		q.held = false
		return false
	}
	if a.quiet(net) && a.Issued == q.prevIssued {
		q.idle++
		return q.idle >= quietWindow
	}
	q.prevIssued, q.idle = a.Issued, 0
	return false
}

// Hold records that the runner stops after the current cycle's loop-head
// check: the next runner's Head skips it instead of counting it twice.
func (q *QuietLoop) Hold() { q.held = true }

// Horizon is how far a transport may step from a loop head at cycle before
// it must make the next completion decision itself: the cycles cycle …
// Horizon()-1 stay below the bound, and Head, called at each of the loop
// heads cycle+1 … Horizon()-1, cannot end the leg — the idle count after
// the head at cycle would have to climb to quietWindow first.
func (q *QuietLoop) Horizon(cycle int64) int64 {
	return min(q.Bound(), cycle+quietWindow-q.idle)
}

// Ran is the cycles the leg has executed at cycle: excluding the quiet
// window once Head has declared it done.
func (q *QuietLoop) Ran(cycle int64) int64 {
	if q.idle >= quietWindow {
		return cycle - q.start - q.idle
	}
	return cycle - q.start
}

// Jump is the event engine's fast-forward after a stepped cycle: with no
// component able to act before next, it returns the cycle to continue at,
// standing in for the Head calls of every skipped iteration. State is
// frozen across the window, so those calls are all alike: either the
// machine is not quiet and each resets the idle count, or it is — nothing
// can have issued, an issue would have put the issuing chip's next event
// at the very next cycle — and each increments it. Then the jump stops one
// short of the window, so that the next real Head returns exactly where
// the naive loop would.
func (q *QuietLoop) Jump(cycle, next int64, a Activity, net *noc.Network) int64 {
	d := min(next, q.Bound()) - cycle
	if d <= 0 {
		return cycle
	}
	if a.quiet(net) {
		room := quietWindow - q.idle - 1
		if room <= 0 {
			return cycle
		}
		d = min(d, room)
		q.idle += d
	} else {
		q.idle = 0
	}
	return cycle + d
}

// Expired is the verdict on a leg that reached its bound: nil when every
// user thread is done (the caller reports their faults), ErrCycleLimit
// otherwise.
func (q *QuietLoop) Expired(a Activity) error {
	if a.Running == 0 {
		return nil
	}
	return fmt.Errorf("machine: %w within %d cycles", ErrCycleLimit, q.span)
}

// State walks the loop; a decoder rejects a position no runner could have
// left between two calls.
func (q *QuietLoop) State(c *snap.Codec) {
	c.I64(&q.span)
	c.I64(&q.start)
	c.I64(&q.idle)
	c.U64(&q.prevIssued)
	c.Bool(&q.begun)
	c.Bool(&q.held)
	if c.Reading() && c.Err() == nil && (q.span < 0 || q.start < 0 || q.span > math.MaxInt64-quietWindow-q.start ||
		q.idle < 0 || q.idle >= quietWindow || !q.begun && *q != QuietLoop{span: q.span}) {
		c.Fail(fmt.Errorf("machine: implausible quiet loop %+v", *q))
	}
}

// Run runs a leg of at most maxCycles cycles to its end (RunLoop with no
// stop cycle) and returns the cycles it executed, excluding the quiet
// window, with an error on timeout or if any user thread faulted.
func (m *Machine) Run(maxCycles int64) (int64, error) {
	loop := NewLeg(maxCycles)
	_, err := m.RunLoop(&loop, math.MaxInt64)
	return loop.Ran(m.Cycle), err
}

// RunLoop steps the machine under loop until the leg ends — Head declared
// it done (err is FaultError's) or it reached its bound (err is Expired's
// verdict, else FaultError's) — and reports true, or until the machine
// reaches cycle until: then it makes that cycle's loop-head check, holds
// the loop and reports false, and the next call with the loop goes on as
// if this one had never returned. A stop request ends the call between
// two cycles with ErrStopped.
//
// Under the event-driven engine RunLoop additionally fast-forwards: after
// each step it takes the earliest NextEvent of any component and, when that
// lies beyond the next cycle, jumps the clock there in one go
// (QuietLoop.Jump), never past until. The skipped cycles are provably
// no-ops (no component may act, so the loop-head bookkeeping is frozen
// too), and their only observable effects — per-cycle stall statistics —
// are replayed exactly by the chips' deferred SkipCycles catch-up, so cycle
// counts, state, and traces stay bit-identical to the naive loop. The
// chips' next event comes from the due-set's cached minima, which can only
// err early — at worst a spurious (and observably identical) busy cycle —
// and the jump itself is one assignment: the chips replay the window when
// they next act (see Step).
func (m *Machine) RunLoop(loop *QuietLoop, until int64) (bool, error) {
	m.runMu.Lock()
	defer m.runMu.Unlock()
	// The chip phase defers idle chips' per-cycle bookkeeping; materialize
	// it before returning so callers observe exactly the per-chip cycle
	// counts and stall statistics of the naive loop. That includes a chip
	// panic unwinding through here: the crashed chip stopped before its Cycle
	// advanced, so the sync leaves it as it broke, and forensics read the
	// naive state of the crash cycle on every other chip.
	defer m.syncDeferred()
	m.WakeAll()
	m.recomputeActive()
	loop.Begin(m.Cycle, m.act)
	for bound := loop.Bound(); m.Cycle < bound; {
		// Stop flag and progress gauge: the only supervision cost on the
		// hot path, one atomic load and one atomic store per loop
		// iteration. Stopping cannot change simulated state — the run
		// merely ends between two cycles.
		m.cycleGauge.Store(m.Cycle)
		if m.stopReq.Load() {
			return false, fmt.Errorf("machine: run stopped at cycle %d: %w", m.Cycle, ErrStopped)
		}
		// The loop-head check reads the incrementally maintained activity
		// totals (see noteStepped) — O(1) instead of the historical
		// O(nodes) UserDone/Quiescent/totalIssued scans every busy cycle,
		// and equal to them at every iteration by construction.
		if loop.Head(m.act, m.Net) {
			return true, m.FaultError()
		}
		if m.Cycle >= until {
			loop.Hold()
			return false, nil
		}
		m.step()
		if !m.Naive {
			next := min(m.Net.NextEvent(m.Cycle), m.ds.nextEvent(m.Cycle), until)
			m.Cycle = loop.Jump(m.Cycle, next, m.act, m.Net)
		}
	}
	m.cycleGauge.Store(m.Cycle)
	if err := loop.Expired(m.act); err != nil {
		return true, err
	}
	return true, m.FaultError()
}

// WakeAll forces every chip to re-derive its next event on its coming
// step. RunLoop calls it on entry so that any state mutated from
// outside the simulation between runs (program loads, register pokes) is
// observed; within a run the engine maintains wake cycles itself.
func (m *Machine) WakeAll() {
	for _, c := range m.Chips {
		c.Touch()
	}
}

// syncDeferred materializes the idle-chip bookkeeping the chip phase
// deferred: every chip is caught up to the machine clock.
func (m *Machine) syncDeferred() { m.ds.sync(m.Cycle) }

// FaultError collects user-thread fault diagnostics, nil if none.
func (m *Machine) FaultError() error {
	if msg := m.firstFault(0, len(m.Chips)); msg != "" {
		return errors.New(msg)
	}
	return nil
}

// firstFault describes the first faulted user thread of chips [lo, hi) in
// (node, vthread, cluster) order, "" if none.
func (m *Machine) firstFault(lo, hi int) string {
	for i := lo; i < hi; i++ {
		for vt := 0; vt < isa.NumUserSlots; vt++ {
			for cl := 0; cl < isa.NumClusters; cl++ {
				th := m.Chips[i].Thread(vt, cl)
				if th.Status == cluster.ThreadFaulted {
					return fmt.Sprintf("machine: node %d vthread %d cluster %d faulted: %s",
						i, vt, cl, th.FaultMsg)
				}
			}
		}
	}
	return ""
}

// MapNodeRange maps npages GTLB pages starting at vaddr to a single node —
// the common "this range lives on node n" case.
func (m *Machine) MapNodeRange(vaddr uint64, npages uint64, node int) error {
	// Round npages up to a power of two, as the encoding requires.
	gp := uint64(1)
	for gp < npages {
		gp *= 2
	}
	c := m.Net.CoordOf(node)
	return m.GDT.Add(gtlb.Entry{
		VirtPage:     vaddr / gtlb.GTLBPageWords,
		GroupPages:   gp,
		Start:        gtlb.NodeID{X: c.X, Y: c.Y, Z: c.Z},
		ExtentLog:    [3]int{0, 0, 0},
		PagesPerNode: gp,
	})
}

// MapLocal creates a local (512-word) page mapping vpn on the given node,
// allocating a physical page, with all blocks in status s. If prime is
// true the LTLB is primed; otherwise only the LPT holds the entry and the
// first access takes an LTLB miss.
func (m *Machine) MapLocal(node int, vpn uint64, s mem.BlockStatus, prime bool) uint64 {
	ppn := m.nextPPN[node]
	m.nextPPN[node]++
	if prime {
		m.Chips[node].Mem.MapPage(vpn, ppn, s)
	} else {
		m.Chips[node].Mem.MapPageLPTOnly(vpn, ppn, s)
	}
	return ppn
}

// Poke writes a word at a node's virtual address (boot/test path).
func (m *Machine) Poke(node int, vaddr, w uint64) error {
	return m.Chips[node].Mem.PokeVirt(vaddr, w, false)
}

// Peek reads a word at a node's virtual address (boot/test path).
func (m *Machine) Peek(node int, vaddr uint64) (uint64, error) {
	w, _, err := m.Chips[node].Mem.PeekVirt(vaddr)
	return w, err
}

// SetTrace installs r as every chip's trace sink (nil removes it). The
// machine moves each stepped chip's records into r after the chip phase,
// in node-index order.
func (m *Machine) SetTrace(r *trace.Recorder) {
	for _, c := range m.Chips {
		c.Trace = r
	}
}
