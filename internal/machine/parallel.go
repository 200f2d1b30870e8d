package machine

// The parallel chip engine: the chip phase of each busy cycle is sharded
// across a persistent pool of worker goroutines with one barrier per cycle.
//
// Chips are independent within a cycle — Chip.Step reads and writes only
// per-chip state plus two shared read-only structures (the GDT and loaded
// programs) and its own node's arrival queues — because the one shared
// *write* path, network injection, goes through the per-chip outbox that
// the machine drains serially after the barrier (see DESIGN.md, "The
// parallel engine").
//
// The pool is *active-set scheduled* (DESIGN.md, "Active-set scheduling"):
// each shard keeps a due-heap over its chips' NextEvent cycles, so a busy
// cycle costs work proportional to the chips that actually act. Idle chips
// are not touched at all — their per-cycle SkipCycles bookkeeping is
// deferred and replayed in one batched call when they next become due (or
// at a sync point). Chips re-enter the due-set through the wake hook
// (chip.SetWakeHook), which the machine's serial phases fire on every
// external wake (message delivery, Touch, LoadProgram). Shards whose whole
// due-set lies in the future are not dispatched at all, and the dispatch
// itself is a sense-reversing barrier on atomics (spin-then-park) instead
// of a channel round trip per worker per cycle.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/chip"
)

// WorkerPanic is the panic value the parallel chip phase re-raises on the
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

// Dispatch mailbox sentinels. Real dispatches carry the cycle number, which
// is non-negative and strictly increasing, so both sentinels are distinct
// from every dispatch and from each other.
const (
	idleCycle = int64(-1) // mailbox initial value (no dispatch yet)
	quitCycle = int64(-2) // stop request
	// notParked marks "nobody is parked" in the park-generation words
	// (shard.parked, chipPool.mparked). It must differ from every value a
	// waiter can park on: cycles (>= 0) and idleCycle.
	notParked = int64(-3)
)

// Barrier spin budgets before parking. The spin phase keeps the
// worker-to-worker handoff at cache-line latency on busy meshes; the park
// phase keeps an oversubscribed or mostly-idle host from burning cores.
const (
	dispatchSpins = 256
	gatherSpins   = 256
)

// dueEntry is one due-heap element: chip `node` is believed runnable at
// cycle `at`. Entries are compared by (at, node) so that same-cycle pops
// come out in node-index order (which keeps the per-cycle stepped list
// nearly sorted).
type dueEntry struct {
	at   int64
	node int32
}

// shard is one worker's slice of the machine plus its barrier endpoints.
// The worker owns everything here during the chip phase; the machine owns
// it between barriers (wake hooks). The two never overlap: the
// barrier's atomics order every handoff.
type shard struct {
	lo, hi int        // chip index range [lo, hi)
	heap   []dueEntry // min-heap over due chips, lazy-deleted against pool.due
	next   int64      // cached min due cycle of the shard (NoEvent if none)

	// stepped lists the node indices this shard stepped in the current
	// cycle, sorted ascending; the machine drains exactly these chips'
	// outboxes and trace buffers after the barrier.
	stepped []int32

	// Panic containment: stepping is the chip currently being stepped
	// (-1 between chips), and crash records a panic recovered out of this
	// shard's cycle. Both are worker-owned during the chip phase and read
	// by the machine after the barrier, like stepped.
	stepping int32
	crash    *WorkerPanic

	// Dispatch mailbox: the machine stores the cycle to run (or quitCycle),
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
// shards[w], a fixed contiguous range of chips.
type chipPool struct {
	chips  []*chip.Chip
	shards []shard

	// due[i] is the pool's belief of chip i's next event cycle. It is never
	// later than the chip's true wake: it is read back from the chip after
	// every pool step of that chip, and lowered by the wake hook on every
	// external wake. Stale-early values merely cause a spurious due-heap
	// pop. shardOf[i] locates chip i's shard for the hook.
	due     []int64
	shardOf []int32

	// Gather-side barrier state. remaining counts down the workers
	// dispatched this cycle; the worker that takes it to zero wakes the
	// machine if (and only if) the machine parked for that same cycle:
	// mparked holds the cycle the machine is parked on (notParked when it
	// is not), and the waker claims it by compare-and-swap, so a worker
	// finishing late can never complete a *later* cycle's barrier.
	remaining atomic.Int32
	mparked   atomic.Int64
	done      chan struct{}

	stopped  atomic.Bool
	stopOnce sync.Once

	// probe is the machine's fault-injection hook (Machine.SetFaultProbe),
	// called on the worker goroutine immediately before each chip step.
	probe func(node int, cycle int64)

	// crashed poisons the pool after a worker panic was re-raised: the
	// shard due-heaps may have lost entries for the aborted cycle, so a
	// further step would silently violate the due-cache invariant instead
	// of failing. Stepping a crashed pool re-raises the original panic.
	crashed *WorkerPanic
}

// newChipPool starts min(workers, len(chips)) workers over contiguous
// shards of near-equal size and installs the due-set wake hooks. The
// goroutines persist until stop.
func newChipPool(chips []*chip.Chip, workers int) *chipPool {
	n := len(chips)
	if workers > n {
		workers = n
	}
	p := &chipPool{
		chips:   chips,
		shards:  make([]shard, workers),
		due:     make([]int64, n),
		shardOf: make([]int32, n),
		done:    make(chan struct{}, 1),
	}
	p.mparked.Store(notParked)
	for i, c := range chips {
		p.due[i] = c.NextEvent(c.Cycle)
		i := i
		c.SetWakeHook(func(at int64) { p.wake(i, at) })
	}
	for w := range p.shards {
		s := &p.shards[w]
		s.lo, s.hi = w*n/workers, (w+1)*n/workers
		s.wakeCh = make(chan struct{}, 1)
		s.slot.Store(idleCycle)
		s.parked.Store(notParked)
		for i := s.lo; i < s.hi; i++ {
			p.shardOf[i] = int32(w)
			if p.due[i] != NoEvent {
				s.push(dueEntry{p.due[i], int32(i)})
			}
		}
		s.next = NoEvent
		if len(s.heap) > 0 {
			s.next = s.heap[0].at
		}
		go p.worker(w) //mlint:allow gocheck the supervised shard worker pool; workers park at the cycle barrier and panics are contained by guard
	}
	return p
}

// wake is the chip wake hook: chip node became runnable at cycle at. It
// runs only on the machine goroutine between chip phases (drain, arrival
// wake-ups, Run entry, program loads), when every worker is parked at the
// barrier, so it may touch shard heaps directly.
func (p *chipPool) wake(node int, at int64) {
	if at >= p.due[node] {
		return
	}
	p.due[node] = at
	s := &p.shards[p.shardOf[node]]
	s.push(dueEntry{at, int32(node)})
	if at < s.next {
		s.next = at
	}
}

// wakeAllAt marks every chip as possibly due at cycle at (used by StepAll,
// whose forced chip steps can lower wakes without firing the hooks). Early
// entries are always safe: a spurious pop just re-enqueues the chip at its
// true wake.
func (p *chipPool) wakeAllAt(at int64) {
	for i := range p.chips {
		p.wake(i, at)
	}
}

// nextEvent reports the earliest cycle >= now at which any chip can act,
// NoEvent if all chips are permanently idle — the shard-aggregated form of
// scanning every chip, O(shards) instead of O(nodes).
func (p *chipPool) nextEvent(now int64) int64 {
	next := NoEvent
	for i := range p.shards {
		if p.shards[i].next < next {
			next = p.shards[i].next
		}
	}
	if next < now {
		return now
	}
	return next
}

// step runs one parallel chip phase for cycle now: dispatch every shard
// with due work, then barrier until they finish. Shards that are wholly
// idle this cycle are not dispatched (and their chips are not touched —
// deferred SkipCycles catch-up replays the idle window when each chip next
// runs). On return the stepped chips have advanced to now+1 and their
// outbox/trace buffers hold the cycle's output.
func (p *chipPool) step(now int64) {
	if p.stopped.Load() {
		panic("machine: parallel chip phase stepped after Close (the worker pool is stopped; do not call Step after Machine.Close)")
	}
	if p.crashed != nil {
		panic(p.crashed)
	}
	dispatched := int32(0)
	for i := range p.shards {
		if p.shards[i].next <= now {
			dispatched++
		}
	}
	if dispatched == 0 {
		for i := range p.shards {
			p.shards[i].stepped = p.shards[i].stepped[:0]
		}
		return
	}
	p.remaining.Store(dispatched)
	for i := range p.shards {
		s := &p.shards[i]
		if s.next <= now {
			p.dispatch(s, now)
		} else {
			s.stepped = s.stepped[:0]
		}
	}
	p.awaitGather(now)
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

// dispatch releases one worker for cycle now (or quitCycle): publish the
// mailbox, then wake the worker iff it is parked on the value the mailbox
// held before — claiming the park by compare-and-swap on that generation.
// A plain boolean here is wrong: the worker can catch the new value
// through its spin loop, run the entire cycle, and park *again* before
// this check runs, and a boolean wake would then deliver a token for a
// dispatch the worker already completed (a phantom wake-up one cycle
// later). The generation CAS fails in that interleaving, because the
// worker is parked on now, not on prev.
func (p *chipPool) dispatch(s *shard, now int64) {
	prev := s.slot.Load()
	s.slot.Store(now)
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
// arrive at the gather barrier; quit on quitCycle. The last arriver of
// cycle now wakes the machine iff the machine parked *for cycle now* — the
// compare-and-swap on the parked generation makes a late arrival from an
// earlier cycle harmless.
func (p *chipPool) worker(w int) {
	s := &p.shards[w]
	last := idleCycle
	for {
		now := s.await(last)
		if now == quitCycle {
			return
		}
		p.runShardContained(s, now)
		if p.remaining.Add(-1) == 0 && p.mparked.CompareAndSwap(now, notParked) {
			p.done <- struct{}{}
		}
		last = now
	}
}

// runShardContained is runShard with panic containment: a panic out of a
// chip step (or an injected fault probe) is recovered here, on the worker
// goroutine where the stack is still deep, and recorded on the shard; the
// worker then arrives at the gather barrier normally so the machine
// goroutine is never left waiting on a crashed cycle. step re-raises the
// recorded panic as a *WorkerPanic after the barrier.
func (p *chipPool) runShardContained(s *shard, now int64) {
	defer func() {
		if v := recover(); v != nil {
			if wp, ok := v.(*WorkerPanic); ok {
				s.crash = wp
				return
			}
			s.crash = &WorkerPanic{Node: int(s.stepping), Cycle: now, Value: v, Stack: debug.Stack()}
		}
	}()
	s.crash = nil
	s.stepping = -1
	p.runShard(s, now)
	s.stepping = -1
}

// awaitGather blocks the machine until every worker dispatched for cycle
// now has arrived, with the same spin-then-park protocol as the workers.
func (p *chipPool) awaitGather(now int64) {
	for i := 0; i < gatherSpins; i++ {
		if p.remaining.Load() == 0 {
			return
		}
		runtime.Gosched()
	}
	p.mparked.Store(now)
	if p.remaining.Load() == 0 {
		if !p.mparked.CompareAndSwap(now, notParked) {
			// The last worker claimed the park: consume its token so it
			// cannot leak into a later cycle's barrier.
			<-p.done
		}
		return
	}
	<-p.done
}

// runShard advances the shard's due chips through cycle now: pop every
// due-heap entry at or before now, batch-replay the chip's deferred idle
// cycles, step it if it is in fact due, and re-enter it with its new
// NextEvent. Chips whose entries lie beyond now are never touched — the
// active-set property. Stale heap entries (superseded by a lower due value)
// are discarded lazily.
func (p *chipPool) runShard(s *shard, now int64) {
	s.stepped = s.stepped[:0]
	for len(s.heap) > 0 && s.heap[0].at <= now {
		e := s.pop()
		if e.at != p.due[e.node] {
			continue // stale
		}
		c := p.chips[e.node]
		s.stepping = e.node
		if d := now - c.Cycle; d > 0 {
			c.SkipCycles(d)
		}
		if c.NextEvent(now) <= now {
			if p.probe != nil {
				p.probe(int(e.node), now)
			}
			c.Step(now)
			s.stepped = append(s.stepped, e.node)
			p.requeue(s, e.node, c.NextEvent(now+1))
		} else {
			// Spurious wake (the cached due cycle was early): re-enter the
			// chip at its true wake.
			p.requeue(s, e.node, c.NextEvent(now))
		}
	}
	for len(s.heap) > 0 && s.heap[0].at != p.due[s.heap[0].node] {
		s.pop()
	}
	if len(s.heap) > 0 {
		s.next = s.heap[0].at
	} else {
		s.next = NoEvent
	}
	// Pops at the same cycle come out in node order, so the list is usually
	// already sorted and this is a cheap linear pass.
	slices.Sort(s.stepped)
}

// requeue records chip node's next event and re-enters it into the
// due-heap. NoEvent chips leave the heap entirely: only a wake hook can
// bring them back.
func (p *chipPool) requeue(s *shard, node int32, at int64) {
	p.due[node] = at
	if at != NoEvent {
		s.push(dueEntry{at, node})
	}
}

// drainOutput flushes the cycle's output of exactly the chips that stepped,
// in global node-index order (shards are contiguous and ascending, and each
// stepped list is sorted). Chips that did not step buffered nothing, so
// this is bit-identical to draining every chip.
func (p *chipPool) drainOutput(now int64) {
	for i := range p.shards {
		for _, node := range p.shards[i].stepped {
			c := p.chips[node]
			c.FlushTrace()
			c.FlushNet(now)
		}
	}
}

// sync catches every chip up to cycle now, materializing the deferred idle
// bookkeeping (SkipCycles) the active-set scheduler batches. The machine
// calls it before any serial chip phase, before Close, and when Run
// returns, so external observers always see the same per-chip cycle counts
// and stall statistics the serial engines produce.
func (p *chipPool) sync(now int64) {
	for _, c := range p.chips {
		if d := now - c.Cycle; d > 0 {
			c.SkipCycles(d)
		}
	}
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

// push/pop implement the due-heap (a plain slice binary min-heap ordered by
// (at, node); no container/heap, so no interface boxing on the hot path).
func (s *shard) push(e dueEntry) {
	h := append(s.heap, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	s.heap = h
}

func (s *shard) pop() dueEntry {
	h := s.heap
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	if len(h) > 0 {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			if l >= len(h) {
				break
			}
			child := l
			if r < len(h) && h[r].less(h[l]) {
				child = r
			}
			if !h[child].less(last) {
				break
			}
			h[i] = h[child]
			i = child
		}
		h[i] = last
	}
	s.heap = h
	return top
}

func (e dueEntry) less(o dueEntry) bool {
	return e.at < o.at || (e.at == o.at && e.node < o.node)
}
