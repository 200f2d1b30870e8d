// Package machine assembles a complete M-Machine: a 3-D mesh of MAP nodes
// (Figure 1), the shared global destination table, and the deterministic
// cycle loop that advances every node and the network in lock step.
//
// The lifecycle is New(Config) -> load programs / map pages -> Run (or
// Step/StepAll/RunUntil) -> Close. Three engines execute the cycle loop
// — the naive per-cycle reference (Naive=true / StepAll), the default
// event-driven engine with idle fast-forward, and the goroutine-sharded
// parallel engine (Config.Workers) — and they are bit-identical in every
// observable way; see DESIGN.md ("The cycle engine", "The parallel
// engine").
//
// Machines checkpoint: Save serializes the complete simulation state to
// a versioned stream, Restore replaces a compatible machine's state
// all-or-nothing (a corrupt or mismatched stream errors and leaves the
// machine untouched), and Fork clones a machine for what-if runs,
// sharing SDRAM chunks copy-on-write. Snapshots are engine-agnostic: a stream
// saved under one engine restores and continues bit-identically under
// any other (DESIGN.md, "Checkpoint/restore").
package machine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/chip"
	"repro/internal/cluster"
	"repro/internal/gtlb"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
)

// ErrStopped is wrapped into the error Run and RunUntil return when an
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

	// Workers selects the parallel chip engine: the chip phase of each busy
	// cycle is sharded across this many persistent worker goroutines with a
	// barrier per cycle (see DESIGN.md, "The parallel engine"). 0 or 1 runs
	// the chip phase serially; -1 uses runtime.GOMAXPROCS(0); values above
	// the node count are clamped. The parallel engine is bit-identical to
	// the serial event engine (enforced by TestDeterminismThreeWay in core)
	// and is ignored under the naive reference engine and by RunUntil.
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

	// workers is the normalized Config.Workers (>= 2 means the parallel
	// chip engine is active); pool is its lazily started goroutine pool,
	// and closed records Close so a later Step cannot resurrect it.
	workers int       `snap:"derived,normalized engine config"`
	pool    *chipPool `snap:"derived,goroutine pool, rebuilt lazily"`
	closed  bool      `snap:"derived,process-lifetime flag"`

	// Supervision plumbing (DESIGN.md, "Supervised runs & fault
	// injection"). runMu serializes Run/RunUntil against Close, so a
	// session teardown can close a machine whose run is still in flight:
	// Close raises stopReq, the run observes it at its next loop head and
	// returns ErrStopped, and Close then proceeds under the lock. stopReq
	// is also the watchdog stop flag guard sets out-of-band; it is polled
	// only at the run-loop head (an existing O(1) sync point), so the
	// per-cycle hot path gains one uncontended atomic load and simulated
	// state is never affected — stopping only decides where the run ends,
	// never what any cycle computes. cycleGauge mirrors Cycle at the same
	// point so monitors on other goroutines can observe progress without
	// racing the engine. probe is the fault-injection hook (SetFaultProbe).
	runMu      sync.Mutex                  `snap:"derived,supervision plumbing"`
	stopReq    atomic.Bool                 `snap:"derived,supervision plumbing"`
	cycleGauge atomic.Int64                `snap:"derived,supervision plumbing"`
	probe      func(node int, cycle int64) `snap:"derived,fault-injection hook, reinstalled by the owner"`

	// arrivalNodes tracks the nodes with delivered-but-unconsumed network
	// messages (arrivalMark is its membership bitmap), maintained
	// incrementally from noc.Network.DeliveredNodes so per-cycle arrival
	// wake-ups cost O(affected nodes), not O(nodes). Used by the event
	// engines only; the naive loop steps everything anyway.
	arrivalNodes []int  `snap:"derived,rebuilt by recomputeActive after Restore"`
	arrivalMark  []bool `snap:"derived,rebuilt by recomputeActive after Restore"`

	// Run-loop activity counters (ROADMAP, "Run-loop active sets"): the
	// loop head's UserDone/Quiescent/totalIssued checks ran O(nodes) scans
	// every busy cycle; these cache the same quantities per chip and
	// maintain the machine totals incrementally. A chip's contribution can
	// only change on a cycle it steps (every thread transition, queue
	// push, and issue happens inside Chip.Step, and its outbox is drained
	// before the counters are read), so noteStepped refreshes exactly the
	// stepped chips — O(active) per cycle. recomputeActive rebuilds
	// everything at Run/RunUntil entry and after Restore, covering
	// external mutations (program loads, pokes) between runs.
	runningUser int      `snap:"derived,rebuilt by recomputeActive after Restore"` // running user H-Threads across all chips
	busyChips   int      `snap:"derived,rebuilt by recomputeActive after Restore"` // chips with outstanding work (!chip.Quiescent)
	issuedTotal uint64   `snap:"derived,rebuilt by recomputeActive after Restore"` // sum of per-chip InstsIssued
	chipRunning []int    `snap:"derived,rebuilt by recomputeActive after Restore"`
	chipBusy    []bool   `snap:"derived,rebuilt by recomputeActive after Restore"`
	chipIssued  []uint64 `snap:"derived,rebuilt by recomputeActive after Restore"`
	steppedBuf  []int    `snap:"derived,per-cycle scratch"` // serial event phase scratch: chips stepped this cycle
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

// newShell builds a machine around net and gdt with its per-node
// bookkeeping allocated and the worker count normalized, and no chips
// yet: the part of construction New and Fork share.
func newShell(cfg Config, net *noc.Network, gdt *gtlb.Table) *Machine {
	m := &Machine{
		Cfg:         cfg,
		Net:         net,
		GDT:         gdt,
		Chips:       make([]*chip.Chip, net.NumNodes()),
		nextPPN:     make([]uint64, net.NumNodes()),
		arrivalMark: make([]bool, net.NumNodes()),
		chipRunning: make([]int, net.NumNodes()),
		chipBusy:    make([]bool, net.NumNodes()),
		chipIssued:  make([]uint64, net.NumNodes()),
	}
	m.workers = cfg.Workers
	if m.workers < 0 {
		m.workers = runtime.GOMAXPROCS(0)
	}
	if m.workers > len(m.Chips) {
		m.workers = len(m.Chips)
	}
	return m
}

// New builds the machine: one chip per mesh coordinate, all sharing the
// network and GDT.
func New(cfg Config) *Machine {
	m := newShell(cfg, noc.New(cfg.Dims, cfg.Chip.Net), &gtlb.Table{})
	for i := range m.Chips {
		c := chip.New(cfg.Chip, m.Net.CoordOf(i), i, m.Net, m.GDT)
		// Initialize the runtime page allocator counter.
		c.Mem.SDRAM.Write(AllocCounterAddr(cfg.Chip.Mem), AllocBasePPN(cfg.Chip.Mem), false)
		// Under the parallel engine trace events are buffered per chip and
		// flushed in node order so the shared callback never runs
		// concurrently (and the stream order matches the serial engines).
		c.BufferTrace = m.workers >= 2
		m.Chips[i] = c
		m.nextPPN[i] = FirstMapPPN
	}
	return m
}

// Close stops the parallel engine's worker goroutines, if any were started,
// after materializing any deferred idle-chip bookkeeping (see step). It is
// optional: an unreachable Machine releases the workers via a GC cleanup.
// Close is idempotent — a second Close (including one racing the GC
// cleanup after a finished Run) is a harmless no-op — and safe to call
// concurrently with an in-flight Run or RunUntil: it raises the stop
// request, waits for the run to observe it at its next loop head and
// return ErrStopped, and only then tears the pool down (the shutdown
// ordering a session server needs). The machine must not be stepped after
// Close — the parallel chip phase panics if it is.
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
	if m.pool != nil {
		m.pool.sync(m.Cycle)
		m.pool.stop()
	}
}

// RequestStop asks an in-flight Run or RunUntil to return at its next
// loop head with an error wrapping ErrStopped. It is safe from any
// goroutine — this is the watchdog stop flag (see internal/guard): the
// flag is polled only at the run-loop head, so it cannot change any
// simulated state, only where the run ends. The request is sticky until
// ClearStop; a Run entered with the flag raised returns immediately.
func (m *Machine) RequestStop() { m.stopReq.Store(true) }

// ClearStop lowers the stop flag. Supervisors call it before starting a
// supervised run so a stale request from a previous run cannot abort the
// new one.
func (m *Machine) ClearStop() { m.stopReq.Store(false) }

// CycleGauge reports the machine cycle most recently observed at a run's
// loop head. Unlike reading Cycle directly, it is safe from any
// goroutine while a run is in flight, which is what watchdog monitors
// need to distinguish a livelocked-but-advancing simulation from a
// wedged one. Between runs it lags Cycle (it is only updated inside
// Run/RunUntil).
func (m *Machine) CycleGauge() int64 { return m.cycleGauge.Load() }

// SetFaultProbe installs fn to be called immediately before every chip
// step, with the chip's node index and the current cycle — the
// fault-injection hook (see internal/faultinject). Under the parallel
// engine the probe runs on worker goroutines, concurrently for distinct
// nodes, so fn must be safe for that; a panic out of fn is contained
// exactly like a panic out of the chip step itself. Install probes only
// between runs (the same contract as program loads); nil removes the
// probe. Probes are for tests and fault drills — the nil check they cost
// per stepped chip is the entire production overhead.
func (m *Machine) SetFaultProbe(fn func(node int, cycle int64)) {
	m.probe = fn
	if m.pool != nil {
		m.pool.probe = fn
	}
}

// NumNodes returns the node count.
func (m *Machine) NumNodes() int { return len(m.Chips) }

// Chip returns node i's processor.
func (m *Machine) Chip(i int) *chip.Chip { return m.Chips[i] }

// StepAll advances the whole machine one cycle the naive way: every chip
// and the network step unconditionally. This is the reference (debug)
// engine the event-driven Step is validated against. When a parallel pool
// is alive (the engines may be interleaved on one machine), StepAll also
// keeps the event-engine caches honest: a forced Step can lower a chip's
// wake internally (e.g. by consuming a delivered message) without firing
// the wake hook, so every chip is re-marked due for the next cycle — the
// safe, possibly-early direction of the due-cache invariant — and the
// tracked arrival set ingests this cycle's deliveries.
func (m *Machine) StepAll() {
	now := m.Cycle
	if m.pool != nil {
		m.pool.sync(now)
	}
	for i, c := range m.Chips {
		if m.probe != nil {
			m.probe(i, now)
		}
		c.Step(now)
	}
	m.drainChipOutput(now)
	for i := range m.Chips {
		m.noteStepped(i)
	}
	m.Net.Step(now)
	if m.pool != nil {
		m.pool.wakeAllAt(now + 1)
	}
	// The wakes are unobservable under naive stepping (only the event
	// engines consult wake cycles), so this costs nothing but keeps the
	// arrival set exact for a later event-engine step.
	m.wakeArrivals(now, true)
	m.Cycle++
}

// Step advances the whole machine one cycle. The event-driven engine steps
// only the chips whose NextEvent is due; a skipped chip replays its idle
// stat side effects via SkipCycles, so observable state evolves exactly as
// under StepAll. The network walk runs only when a message can move. With
// Config.Workers >= 2 the chip phase runs sharded on the worker pool under
// active-set scheduling: chips that are not due are not touched at all —
// their per-cycle idle bookkeeping is deferred and replayed in one batch
// when they next become due, or at the next sync point (Run returning,
// RunUntil, StepAll, Close), so every externally observed state is
// bit-identical to the serial engines'.
func (m *Machine) Step() { m.step(m.workers >= 2) }

// step is Step with an explicit engine choice for the chip phase; RunUntil
// forces the serial phase so tight per-cycle predicate loops don't pay the
// parallel barrier.
func (m *Machine) step(parallel bool) {
	if m.Naive {
		m.StepAll()
		return
	}
	now := m.Cycle
	if parallel {
		if m.pool == nil {
			if m.closed {
				// Without this, a Close before the first parallel step would
				// let the lazy path resurrect a worker pool on a closed
				// machine instead of tripping the pool's own panic.
				panic("machine: parallel chip phase stepped after Close (do not call Step after Machine.Close)")
			}
			m.pool = newChipPool(m.Chips, m.workers)
			m.pool.probe = m.probe
			// Backstop for machines that are never Closed (the experiment
			// harnesses build thousands): release the workers when the
			// machine becomes unreachable. The cleanup must not capture m.
			runtime.AddCleanup(m, func(p *chipPool) { p.stop() }, m.pool)
		}
		m.pool.step(now)
		// Only chips that stepped can have buffered output; drain exactly
		// those, in node-index order.
		m.pool.drainOutput(now)
		for i := range m.pool.shards {
			for _, node := range m.pool.shards[i].stepped {
				m.noteStepped(int(node))
			}
		}
	} else {
		// Entering the serial chip phase with a pool alive: materialize any
		// idle bookkeeping the active-set scheduler deferred, so Step's
		// per-chip cycle invariant holds.
		if m.pool != nil {
			m.pool.sync(now)
		}
		stepped := m.steppedBuf[:0]
		for i, c := range m.Chips {
			if c.NextEvent(now) <= now {
				if m.probe != nil {
					m.probe(i, now)
				}
				c.Step(now)
				stepped = append(stepped, i)
			} else {
				c.SkipCycles(1)
			}
		}
		m.drainChipOutput(now)
		for _, i := range stepped {
			m.noteStepped(i)
		}
		m.steppedBuf = stepped
	}
	netStepped := false
	if m.Net.NeedsStep(now) {
		m.Net.Step(now)
		netStepped = true
	}
	m.wakeArrivals(now, netStepped)
	m.Cycle++
}

// wakeArrivals wakes every chip that has delivered-but-unconsumed network
// messages: a delivery at cycle now is consumed by the destination's
// network input interface at now+1, and a node whose queues are still
// backed up must retry every cycle (the return-to-sender protocol depends
// on it). The tracked node list is maintained incrementally — last cycle's
// survivors plus this cycle's delivery targets — so the walk costs
// O(affected nodes) instead of O(nodes); WakeAll rebuilds it from scratch
// at Run/RunUntil entry.
func (m *Machine) wakeArrivals(now int64, netStepped bool) {
	keep := m.arrivalNodes[:0]
	for _, i := range m.arrivalNodes {
		if m.Net.HasArrivals(i) {
			keep = append(keep, i)
		} else {
			m.arrivalMark[i] = false
		}
	}
	if netStepped {
		for _, i := range m.Net.DeliveredNodes() {
			if !m.arrivalMark[i] {
				m.arrivalMark[i] = true
				keep = append(keep, i)
			}
		}
	}
	m.arrivalNodes = keep
	for _, i := range keep {
		m.Chips[i].WakeAt(now + 1)
	}
}

// drainChipOutput moves every chip's buffered cycle output into the shared
// structures, in node-index order: trace events to the callback, outbox
// messages into the network. A chip cannot observe another chip's
// same-cycle injections, so draining after the chip phase is bit-identical
// to the historical inject-during-step order — and it is the only point
// where per-chip work touches shared mutable state, which is what makes
// the parallel chip phase safe.
func (m *Machine) drainChipOutput(now int64) {
	for _, c := range m.Chips {
		c.FlushTrace()
		c.FlushNet(now)
	}
}

// NextEvent reports the earliest cycle >= now at which any component of the
// machine can change state without new external input, NoEvent if the
// machine is permanently idle (deadlocked or finished). With the parallel
// engine's pool alive the chip minimum comes from the per-shard due-set
// aggregates — O(shards) instead of O(nodes); the cached values are never
// later than the chips' true wakes, so the answer can only err early, which
// at worst costs a spurious (and observably identical) busy cycle.
func (m *Machine) NextEvent(now int64) int64 {
	next := m.Net.NextEvent(now)
	if m.pool != nil {
		if w := m.pool.nextEvent(now); w < next {
			next = w
		}
		return next
	}
	for _, c := range m.Chips {
		if w := c.NextEvent(now); w < next {
			next = w
		}
	}
	return next
}

// skip fast-forwards the machine clock d cycles; the caller must have
// established via NextEvent that no component can act inside the window.
// With the parallel pool alive the per-chip SkipCycles replay is deferred
// (the active-set scheduler batches it when a chip next runs, or a sync
// point materializes it), so a machine-wide idle jump is one addition.
func (m *Machine) skip(d int64) {
	if m.pool == nil {
		for _, c := range m.Chips {
			c.SkipCycles(d)
		}
	}
	m.Cycle += d
}

// UserDone reports whether every loaded user H-Thread has halted or
// faulted.
func (m *Machine) UserDone() bool {
	for i := range m.Chips {
		if runningUserOf(m.Chips[i]) > 0 {
			return false
		}
	}
	return true
}

// runningUserOf counts a chip's running user H-Threads.
func runningUserOf(c *chip.Chip) int {
	n := 0
	for vt := 0; vt < isa.NumUserSlots; vt++ {
		for cl := 0; cl < isa.NumClusters; cl++ {
			if c.Thread(vt, cl).Status == cluster.ThreadRunning {
				n++
			}
		}
	}
	return n
}

// noteStepped refreshes chip i's cached activity contributions after it
// stepped (its outbox must already be drained, so the quiescence check
// sees the cross-cycle state). Chips that skip a cycle cannot change any
// of the three quantities, so the loop head's totals stay exact while
// only stepped chips are visited.
func (m *Machine) noteStepped(i int) {
	c := m.Chips[i]
	if n := runningUserOf(c); n != m.chipRunning[i] {
		m.runningUser += n - m.chipRunning[i]
		m.chipRunning[i] = n
	}
	if b := !c.Quiescent(); b != m.chipBusy[i] {
		if b {
			m.busyChips++
		} else {
			m.busyChips--
		}
		m.chipBusy[i] = b
	}
	if v := c.InstsIssued; v != m.chipIssued[i] {
		m.issuedTotal += v - m.chipIssued[i]
		m.chipIssued[i] = v
	}
}

// recomputeActive rebuilds the run-loop activity counters from scratch —
// the O(nodes) pass Run and RunUntil pay once at entry (and Restore pays
// once at commit) so that state mutated from outside the simulation is
// observed; within a run noteStepped keeps them exact incrementally.
func (m *Machine) recomputeActive() {
	m.runningUser, m.busyChips, m.issuedTotal = 0, 0, 0
	for i, c := range m.Chips {
		m.chipRunning[i] = runningUserOf(c)
		m.runningUser += m.chipRunning[i]
		m.chipBusy[i] = !c.Quiescent()
		if m.chipBusy[i] {
			m.busyChips++
		}
		m.chipIssued[i] = c.InstsIssued
		m.issuedTotal += c.InstsIssued
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

// QuietWindow is quietWindow for external bound arithmetic: Run's cycle
// bound is padded by this many detection cycles, so a caller that must
// stop the machine at an exact cycle (internal/guard's cycle budgets)
// subtracts it back out of the bound it passes.
const QuietWindow = quietWindow

// Run steps until all user threads are done and the machine has been
// quiescent (no queued work and no instruction issued) for quietWindow
// cycles, or maxCycles elapse. It returns the cycles executed (excluding
// the quiet window) and an error on timeout or if any user thread faulted.
//
// Under the event-driven engine Run additionally fast-forwards: after each
// step it asks every component for its NextEvent and, when the minimum lies
// beyond the next cycle, jumps the clock there in one go. The skipped
// cycles are provably no-ops (no component may act, so the loop-head
// bookkeeping below is frozen too), and their only observable effects —
// per-cycle stall statistics — are replayed exactly by Machine.skip, so
// cycle counts, state, and traces stay bit-identical to the naive loop.
func (m *Machine) Run(maxCycles int64) (int64, error) {
	m.runMu.Lock()
	defer m.runMu.Unlock()
	// The active-set scheduler defers idle chips' per-cycle bookkeeping;
	// materialize it before returning so callers observe exactly the
	// per-chip cycle counts and stall statistics of the serial engines.
	defer m.syncDeferred()
	m.WakeAll()
	m.recomputeActive()
	start := m.Cycle
	bound := start + maxCycles + quietWindow
	idle := int64(0)
	prevIssued := m.issuedTotal
	for m.Cycle < bound {
		// Stop flag and progress gauge: the only supervision cost on the
		// hot path, one atomic load and one atomic store per loop
		// iteration. Stopping cannot change simulated state — the run
		// merely ends between two cycles.
		m.cycleGauge.Store(m.Cycle)
		if m.stopReq.Load() {
			return m.Cycle - start, fmt.Errorf("machine: run stopped at cycle %d: %w", m.Cycle, ErrStopped)
		}
		// The loop-head checks read the incrementally maintained activity
		// counters (see noteStepped) — O(1) instead of the historical
		// O(nodes) UserDone/Quiescent/totalIssued scans every busy cycle,
		// and equal to them at every iteration by construction.
		if m.runningUser == 0 && m.busyChips == 0 && m.Net.Quiescent() {
			if m.issuedTotal == prevIssued {
				idle++
				if idle >= quietWindow {
					return m.Cycle - start - idle, m.FaultError()
				}
			} else {
				prevIssued, idle = m.issuedTotal, 0
			}
		} else {
			prevIssued, idle = m.issuedTotal, 0
		}
		m.Step()
		if !m.Naive {
			m.fastForward(bound, &idle)
		}
	}
	m.cycleGauge.Store(m.Cycle)
	if m.UserDone() {
		return m.Cycle - start, m.FaultError()
	}
	return m.Cycle - start, fmt.Errorf("machine: %w within %d cycles", ErrCycleLimit, maxCycles)
}

// fastForward jumps the clock to the machine's next event (clamped to
// bound), emulating the loop-head bookkeeping of Run for every skipped
// iteration. State is frozen across the window, so the per-iteration
// checks are constant: either the machine is done and quiescent — each
// skipped iteration increments the idle counter, and the jump must stop
// one cycle before the counter reaches the quiet window so the next real
// iteration returns exactly where the naive loop would — or it is not, and
// each iteration resets the counter.
func (m *Machine) fastForward(bound int64, idle *int64) {
	next := m.NextEvent(m.Cycle)
	if next > bound {
		next = bound
	}
	d := next - m.Cycle
	if d <= 0 {
		return
	}
	if m.runningUser == 0 && m.busyChips == 0 && m.Net.Quiescent() {
		// issuedTotal cannot have changed (an issue would have set the
		// issuing chip's NextEvent to the very next cycle), so every
		// skipped iteration takes the idle++ branch.
		room := quietWindow - *idle - 1
		if room <= 0 {
			return
		}
		if d > room {
			d = room
		}
		*idle += d
	} else {
		*idle = 0
	}
	m.skip(d)
}

// WakeAll forces every chip to re-derive its next event on its coming
// step. Run and RunUntil call it on entry so that any state mutated from
// outside the simulation between runs (program loads, register pokes) is
// observed; within a run the engine maintains wake cycles itself. It also
// rebuilds the tracked arrival set from scratch, so deliveries that
// happened outside the event engines (e.g. naive-engine cycles on the same
// machine) are re-observed.
func (m *Machine) WakeAll() {
	m.arrivalNodes = m.arrivalNodes[:0]
	for i, c := range m.Chips {
		if m.Net.HasArrivals(i) {
			m.arrivalMark[i] = true
			m.arrivalNodes = append(m.arrivalNodes, i)
		} else {
			m.arrivalMark[i] = false
		}
		c.Touch()
	}
}

// syncDeferred materializes any idle-chip bookkeeping the active-set
// scheduler deferred (no-op without a pool).
func (m *Machine) syncDeferred() {
	if m.pool != nil {
		m.pool.sync(m.Cycle)
	}
}

// RunUntil steps until pred holds or maxCycles elapse. The event engine
// advances cycle-by-cycle here (components are still skipped when idle,
// but the clock is not fast-forwarded), so an arbitrary predicate — even
// one reading Machine.Cycle — observes exactly the per-cycle sequence the
// naive loop produces. The chip phase always runs serially here, even on
// a parallel-configured machine: with no fast-forward amortizing it, the
// per-cycle barrier would dominate, and the result is identical anyway.
func (m *Machine) RunUntil(pred func() bool, maxCycles int64) (int64, error) {
	m.runMu.Lock()
	defer m.runMu.Unlock()
	m.syncDeferred() // pred may read per-chip state a prior Run deferred
	m.WakeAll()
	m.recomputeActive()
	start := m.Cycle
	for m.Cycle-start < maxCycles {
		m.cycleGauge.Store(m.Cycle)
		if m.stopReq.Load() {
			return m.Cycle - start, fmt.Errorf("machine: run stopped at cycle %d: %w", m.Cycle, ErrStopped)
		}
		if pred() {
			return m.Cycle - start, nil
		}
		m.step(false)
	}
	return m.Cycle - start, fmt.Errorf("machine: condition not met within %d cycles", maxCycles)
}

// RunExact advances exactly n cycles with no completion detection and no
// fast-forward — what a supervisor needs to land on a precise cycle when
// less than one quiet window of budget is left. It errs only when a stop
// request cut it short (ErrStopped).
func (m *Machine) RunExact(n int64) (int64, error) {
	ran, err := m.RunUntil(func() bool { return false }, n)
	if errors.Is(err, ErrStopped) {
		return ran, err
	}
	return ran, nil
}

// FaultError collects user-thread fault diagnostics, nil if none.
func (m *Machine) FaultError() error {
	for i, c := range m.Chips {
		for vt := 0; vt < isa.NumUserSlots; vt++ {
			for cl := 0; cl < isa.NumClusters; cl++ {
				th := c.Thread(vt, cl)
				if th.Status == cluster.ThreadFaulted {
					return fmt.Errorf("machine: node %d vthread %d cluster %d faulted: %s",
						i, vt, cl, th.FaultMsg)
				}
			}
		}
	}
	return nil
}

// MapPageGroup installs a GDT entry distributing a virtual range across
// nodes (Figure 8).
func (m *Machine) MapPageGroup(e gtlb.Entry) error { return m.GDT.Add(e) }

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

// SetTrace installs a trace callback on every chip.
func (m *Machine) SetTrace(fn func(cycle int64, node int, event, detail string)) {
	for _, c := range m.Chips {
		c.Trace = fn
	}
}
