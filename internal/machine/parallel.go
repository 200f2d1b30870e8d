package machine

// The worker pool: a transport that runs the one chip phase
// (dueSet.stepRange) over several node ranges at once, as a fork-join.
// Range w >= 1 has a persistent goroutine blocked on start[w]; in a busy
// cycle the machine goroutine starts each due range's worker, steps range 0
// itself and collects one done token per start. Chips are independent
// within a cycle: network injection, the one shared write path, goes
// through per-chip outboxes the machine drains after the join (DESIGN.md,
// "The cycle engine").

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// WorkerPanic is what the pooled chip phase re-raises on the machine
// goroutine when a range's chip step panicked. The panic is recovered where
// it happened (a worker, or the machine goroutine for range 0), so the join
// always completes; it carries the value, that stack and the (node, cycle)
// to a supervisor (internal/guard), which turns it into a typed error.
type WorkerPanic struct {
	Node  int    // chip the range was stepping, -1 if the panic hit between chips
	Cycle int64  // cycle being stepped
	Value any    // the original panic value
	Stack []byte // stack of the goroutine that panicked, at the panic
}

func (wp *WorkerPanic) Error() string {
	return fmt.Sprintf("chip panic at node %d, cycle %d: %v", wp.Node, wp.Cycle, wp.Value)
}

// CrashSite reports the offending node and cycle (guard's crashSite).
func (wp *WorkerPanic) CrashSite() (node int, cycle int64) { return wp.Node, wp.Cycle }

// chipPool is the persistent worker pool. The goroutine behind start[w]
// (w >= 1) owns ds.ranges[w] from its start token to its done token; the
// machine goroutine owns range 0, and every range outside a chip phase.
type chipPool struct {
	ds    *dueSet
	start []chan struct{} // start[0] is nil: the machine steps range 0
	done  chan struct{}   // one token per finished worker; a slot each
	now   int64           // cycle of the phase in flight
	crash []*WorkerPanic  // crash[w]: the panic recovered out of range w

	stopped  atomic.Bool
	stopOnce sync.Once

	// crashed poisons the pool once a panic was re-raised: the chip stopped
	// mid-step, so every later step re-raises it instead of running on.
	crashed *WorkerPanic
}

// stepPooled runs the chip phase of cycle now on the worker pool, starting
// one goroutine per range but the first on first use. The goroutines
// persist until Close (or the machine's collection) stops them.
func (m *Machine) stepPooled(now int64) {
	if m.pool == nil {
		if m.closed {
			// Else a Close before the first pooled step would let the lazy
			// path resurrect a pool on a closed machine.
			panic("machine: parallel chip phase stepped after Close (do not call Step after Machine.Close)")
		}
		n := len(m.ds.ranges)
		p := &chipPool{ds: m.ds, start: make([]chan struct{}, n), done: make(chan struct{}, n-1), crash: make([]*WorkerPanic, n)}
		for w := 1; w < n; w++ {
			p.start[w] = make(chan struct{}, 1)
			go p.worker(w) //mlint:allow gocheck the supervised chip-phase pool; workers block on their start channel and panics are contained by guard
		}
		m.pool = p
		// Backstop for machines never Closed (the experiment harnesses build
		// thousands): release the workers when the machine becomes
		// unreachable. The pool must not reach m, not even through ds.
		runtime.AddCleanup(m, func(p *chipPool) { p.stop() }, p)
	}
	m.pool.step(now)
}

// step runs one chip phase for cycle now: start the worker of every other
// due range, step range 0 if it is due, then wait for the started workers.
func (p *chipPool) step(now int64) {
	if p.stopped.Load() {
		panic("machine: parallel chip phase stepped after Close (the worker pool is stopped; do not call Step after Machine.Close)")
	}
	if p.crashed != nil {
		panic(p.crashed)
	}
	p.now = now
	started := 0
	for w := 1; w < len(p.start); w++ {
		if p.ds.ranges[w].next <= now {
			p.start[w] <- struct{}{}
			started++
		}
	}
	if p.ds.ranges[0].next <= now {
		p.runShardContained(0, now)
	}
	for ; started > 0; started-- {
		<-p.done
	}
	// Re-raise a recovered panic once every worker is back, so a supervisor
	// that recovers it may snapshot the machine. The lowest node wins, so
	// the raised panic is deterministic.
	var crash *WorkerPanic
	for _, c := range p.crash {
		if c != nil && (crash == nil || c.Node < crash.Node) {
			crash = c
		}
	}
	if crash != nil {
		p.crashed = crash
		panic(crash)
	}
}

// worker steps range w once per start token until stop closes its channel.
func (p *chipPool) worker(w int) {
	for range p.start[w] {
		p.runShardContained(w, p.now)
		p.done <- struct{}{}
	}
}

// runShardContained steps range w. A panic out of a chip step or fault
// probe is recovered into crash[w] here, where the stack is still deep;
// step re-raises it after the join.
func (p *chipPool) runShardContained(w int, now int64) {
	r := &p.ds.ranges[w]
	defer func() {
		if v := recover(); v != nil {
			p.crash[w] = &WorkerPanic{Node: r.stepping, Cycle: now, Value: v, Stack: debug.Stack()}
		}
	}()
	p.crash[w] = nil
	p.ds.stepRange(r, now)
}

// stop ends the workers, once; stepping the pool after it panics.
func (p *chipPool) stop() {
	p.stopOnce.Do(func() {
		p.stopped.Store(true)
		for _, c := range p.start[1:] {
			close(c)
		}
	})
}
