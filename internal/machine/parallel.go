package machine

// The worker pool: a transport that runs the one chip phase
// (dueSet.stepRange) for several node ranges at once, on persistent
// goroutines with one barrier per busy cycle. It schedules nothing; what
// is left here is about goroutines only — the dispatch mailboxes and the
// gather barrier, panic containment, start and stop.
//
// Chips are independent within a cycle — Chip.Step reads and writes only
// per-chip state plus two shared read-only structures (the GDT and loaded
// programs) and its own node's arrival queues — because the one shared
// *write* path, network injection, goes through the per-chip outbox that
// the machine drains serially after the barrier (DESIGN.md, "The cycle
// engine"). Ranges with nothing due are not dispatched at all, and the
// dispatch itself is a sense-reversing barrier on atomics (spin-then-park)
// instead of a channel round trip per worker per cycle.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// WorkerPanic is the panic value the pooled chip phase re-raises on the
// machine goroutine when a worker goroutine's chip step panicked. Worker
// panics are recovered at the shard boundary — the worker still arrives at
// the gather barrier, so the machine never deadlocks on a crashed cycle —
// and the panic value, the worker-side stack, and the offending (node,
// cycle) are carried across so a supervisor (internal/guard) can convert
// the crash into a typed error with full forensics. Without a supervisor
// the re-raised panic crashes the process just as the original would have,
// only with better attribution.
type WorkerPanic struct {
	Node  int    // chip the shard was stepping, -1 if the panic hit between chips
	Cycle int64  // cycle being stepped
	Value any    // the original panic value
	Stack []byte // worker goroutine stack at the point of the panic
}

func (wp *WorkerPanic) Error() string {
	return fmt.Sprintf("chip panic at node %d, cycle %d: %v", wp.Node, wp.Cycle, wp.Value)
}

// CrashSite reports the offending node and cycle (the guard.crashSite
// interface).
func (wp *WorkerPanic) CrashSite() (node int, cycle int64) { return wp.Node, wp.Cycle }

// Dispatch mailbox sentinels. Real dispatches carry the pool's phase
// number (chipPool.phase), which is positive and strictly increasing — the
// cycle is not: a Restore can put the clock back to a cycle the pool has
// already run — so both sentinels are distinct from every dispatch and
// from each other.
const (
	idleCycle = int64(-1) // mailbox initial value (no dispatch yet)
	quitCycle = int64(-2) // stop request
	// notParked marks "nobody is parked" in the park-generation words
	// (shard.parked, chipPool.mparked). It must differ from every value a
	// waiter can park on: phase numbers (> 0) and idleCycle.
	notParked = int64(-3)
)

// Barrier spin budgets before parking. The spin phase keeps the
// worker-to-worker handoff at cache-line latency on busy meshes; the park
// phase keeps an oversubscribed or mostly-idle host from burning cores.
const (
	dispatchSpins = 256
	gatherSpins   = 256
)

// shard is one worker's barrier endpoint; shards[w] serves ranges[w] of the
// due-set. The worker owns the range during the chip phase, the machine
// owns it between barriers (wake hooks, drain). The two never overlap: the
// barrier's atomics order every handoff.
type shard struct {
	// crash records a panic recovered out of this shard's cycle: written by
	// the worker, read by the machine after the barrier.
	crash *WorkerPanic

	// Dispatch mailbox: the machine stores the phase to run (or quitCycle),
	// the worker spins on it and parks on wakeCh when the spin budget runs
	// out. parked holds the mailbox value the worker parked on (notParked
	// when it is not parked): the machine wakes a worker by compare-and-
	// swapping the *previous* mailbox value, so it can never be fooled by a
	// worker that caught the new value through the spin path, completed the
	// whole cycle, and parked again before the machine's wake check ran.
	slot   atomic.Int64
	parked atomic.Int64
	wakeCh chan struct{}
}

// chipPool is the persistent worker pool. Worker w permanently owns
// shards[w] and, during a chip phase, ds.ranges[w].
type chipPool struct {
	ds     *dueSet
	shards []shard

	// phase numbers the chip phases the pool has run, and now is the cycle
	// of the one in flight: written by the machine before the dispatch,
	// read by the workers after they observe it in their mailbox.
	phase, now int64

	// Gather-side barrier state. remaining counts down the workers
	// dispatched this phase; the worker that takes it to zero wakes the
	// machine if (and only if) the machine parked for that same phase:
	// mparked holds the phase the machine is parked on (notParked when it
	// is not), and the waker claims it by compare-and-swap, so a worker
	// finishing late can never complete a *later* phase's barrier.
	remaining atomic.Int32
	mparked   atomic.Int64
	done      chan struct{}

	stopped  atomic.Bool
	stopOnce sync.Once

	// crashed poisons the pool after a worker panic was re-raised: the
	// crashed chip stopped mid-step, so a further cycle would run on torn
	// state instead of failing. Stepping a crashed pool re-raises the
	// original panic.
	crashed *WorkerPanic
}

// stepPooled runs the chip phase of cycle now on the worker pool, starting
// one goroutine per range on first use. The goroutines persist until Close
// (or the machine's collection) stops them.
func (m *Machine) stepPooled(now int64) {
	if m.pool == nil {
		if m.closed {
			// Without this, a Close before the first pooled step would let the
			// lazy path resurrect a worker pool on a closed machine instead
			// of tripping the pool's own panic.
			panic("machine: parallel chip phase stepped after Close (do not call Step after Machine.Close)")
		}
		p := &chipPool{ds: m.ds, shards: make([]shard, len(m.ds.ranges)), done: make(chan struct{}, 1)}
		p.mparked.Store(notParked)
		for w := range p.shards {
			s := &p.shards[w]
			s.wakeCh = make(chan struct{}, 1)
			s.slot.Store(idleCycle)
			s.parked.Store(notParked)
			go p.worker(w) //mlint:allow gocheck the supervised shard worker pool; workers park at the cycle barrier and panics are contained by guard
		}
		m.pool = p
		// Backstop for machines that are never Closed (the experiment
		// harnesses build thousands): release the workers when the machine
		// becomes unreachable. The pool must not reach m, directly or
		// through the due-set.
		runtime.AddCleanup(m, func(p *chipPool) { p.stop() }, p)
	}
	m.pool.step(now)
}

// step runs one chip phase for cycle now: dispatch every shard whose range
// has due work, then barrier until they finish. Ranges that are wholly
// idle this cycle are not dispatched.
func (p *chipPool) step(now int64) {
	if p.stopped.Load() {
		panic("machine: parallel chip phase stepped after Close (the worker pool is stopped; do not call Step after Machine.Close)")
	}
	if p.crashed != nil {
		panic(p.crashed)
	}
	dispatched := int32(0)
	for w := range p.ds.ranges {
		if p.ds.ranges[w].next <= now {
			dispatched++
		}
	}
	if dispatched == 0 {
		return
	}
	p.remaining.Store(dispatched)
	p.phase++
	p.now = now
	for w := range p.shards {
		if p.ds.ranges[w].next <= now {
			p.dispatch(&p.shards[w], p.phase)
		}
	}
	p.awaitGather(p.phase)
	// Re-raise any worker panic on the machine goroutine, after the
	// barrier so every worker is parked and the machine is the only
	// goroutine touching simulation state (a supervisor that recovers the
	// panic can therefore safely snapshot it). With several same-cycle
	// crashes the lowest node wins, so the raised panic is deterministic.
	var crash *WorkerPanic
	for i := range p.shards {
		if c := p.shards[i].crash; c != nil && (crash == nil || c.Node < crash.Node) {
			crash = c
		}
	}
	if crash != nil {
		p.crashed = crash
		panic(crash)
	}
}

// dispatch releases one worker for a phase (or quitCycle): publish the
// mailbox, then wake the worker iff it is parked on the value the mailbox
// held before — claiming the park by compare-and-swap on that generation.
// A plain boolean here is wrong: the worker can catch the new value
// through its spin loop, run the entire cycle, and park *again* before
// this check runs, and a boolean wake would then deliver a token for a
// dispatch the worker already completed (a phantom wake-up one cycle
// later). The generation CAS fails in that interleaving, because the
// worker is parked on phase, not on prev.
func (p *chipPool) dispatch(s *shard, phase int64) {
	prev := s.slot.Load()
	s.slot.Store(phase)
	if s.parked.CompareAndSwap(prev, notParked) {
		s.wakeCh <- struct{}{}
	}
}

// await blocks the shard's worker until a dispatch newer than last
// arrives: spin on the mailbox, then park on the wake channel. The park
// generation (the value being waited past) is advertised before the final
// mailbox recheck, mirroring dispatch, so exactly one of the two sides
// completes the handshake and a wake token can never outlive its cycle.
func (s *shard) await(last int64) int64 {
	for i := 0; i < dispatchSpins; i++ {
		if v := s.slot.Load(); v != last {
			return v
		}
		runtime.Gosched()
	}
	s.parked.Store(last)
	if v := s.slot.Load(); v != last {
		if !s.parked.CompareAndSwap(last, notParked) {
			// The dispatcher claimed the park first and committed to a
			// wake: consume the token so it cannot leak into a later cycle.
			<-s.wakeCh
		}
		return v
	}
	<-s.wakeCh
	return s.slot.Load()
}

// worker is the per-shard goroutine: await a dispatch, run the shard,
// arrive at the gather barrier; quit on quitCycle. The last arriver of a
// phase wakes the machine iff the machine parked *for that phase* — the
// compare-and-swap on the parked generation makes a late arrival from an
// earlier phase harmless.
func (p *chipPool) worker(w int) {
	s := &p.shards[w]
	last := idleCycle
	for {
		phase := s.await(last)
		if phase == quitCycle {
			return
		}
		p.runShardContained(w, p.now)
		if p.remaining.Add(-1) == 0 && p.mparked.CompareAndSwap(phase, notParked) {
			p.done <- struct{}{}
		}
		last = phase
	}
}

// runShardContained runs the chip phase over the worker's range with panic
// containment: a panic out of a chip step (or an injected fault probe) is
// recovered here, on the worker goroutine where the stack is still deep,
// and recorded on the shard; the worker then arrives at the gather barrier
// normally so the machine goroutine is never left waiting on a crashed
// cycle. step re-raises the recorded panic as a *WorkerPanic after the
// barrier.
func (p *chipPool) runShardContained(w int, now int64) {
	s, r := &p.shards[w], &p.ds.ranges[w]
	defer func() {
		if v := recover(); v != nil {
			if wp, ok := v.(*WorkerPanic); ok {
				s.crash = wp
				return
			}
			s.crash = &WorkerPanic{Node: r.stepping, Cycle: now, Value: v, Stack: debug.Stack()}
		}
	}()
	s.crash = nil
	p.ds.stepRange(r, now)
}

// awaitGather blocks the machine until every worker dispatched for the
// phase has arrived, with the same spin-then-park protocol as the workers.
func (p *chipPool) awaitGather(phase int64) {
	for i := 0; i < gatherSpins; i++ {
		if p.remaining.Load() == 0 {
			return
		}
		runtime.Gosched()
	}
	p.mparked.Store(phase)
	if p.remaining.Load() == 0 {
		if !p.mparked.CompareAndSwap(phase, notParked) {
			// The last worker claimed the park: consume its token so it
			// cannot leak into a later cycle's barrier.
			<-p.done
		}
		return
	}
	<-p.done
}

// stop terminates the workers. Idempotent; safe after any number of steps.
// A worker parked at the dispatch barrier is woken and exits; stepping the
// pool after stop panics (see step).
func (p *chipPool) stop() {
	p.stopOnce.Do(func() {
		p.stopped.Store(true)
		for i := range p.shards {
			p.dispatch(&p.shards[i], quitCycle)
		}
	})
}
