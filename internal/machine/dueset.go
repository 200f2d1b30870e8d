package machine

// The chip phase — which chips act this cycle, and how an idle chip
// accounts for the cycles it sat out — exists once, here, for every
// engine and transport (DESIGN.md, "The cycle engine"). stepRange runs it
// over one contiguous node range: Step, Run and RunUntil call it inline
// over the whole mesh, the pool's workers call it on their range, and a
// dist worker calls it (through Machine.StepRange) on the range it owns.

import "repro/internal/chip"

// chipRange is one contiguous node range [lo, hi) the chip phase runs over,
// with the range's share of the scheduler state. Exactly one goroutine owns
// a range during a chip phase; the machine goroutine owns all of them
// between phases.
type chipRange struct {
	lo, hi int

	// next is min(due[lo:hi]) as of the range's last phase, lowered by every
	// wake since. Like due it is never later than the truth, so a range
	// whose next lies in the future has no chip to step.
	next int64

	// stepped lists the chips the phase stepped, ascending. Only they can
	// have buffered output or changed activity, so the drain visits exactly
	// these and leaves the list empty for the next cycle.
	stepped []int

	// stepping is the chip being stepped, -1 between chips: what a worker's
	// panic containment attributes a crash to.
	stepping int

	// Workers write the fields above once per stepped chip; the pad keeps
	// neighbouring ranges' copies off each other's cache lines.
	_ [72]byte
}

// dueSet is the machine's chip scheduler. It is allocated apart from the
// Machine because the pool's goroutines hold it: a Machine they could
// reach would never be collected, and its GC cleanup is what stops them.
type dueSet struct {
	chips []*chip.Chip // the machine's Chips slice

	// due[i] is the believed next event cycle of chip i. It is never later
	// than the chip's true NextEvent: the phase reads it back from the chip
	// after every visit, and the wake hook lowers it on every external wake
	// (WakeAt, Touch, LoadProgram). An early value costs one spurious visit.
	// A chip that is not due is not touched at all, so its Cycle may lag the
	// machine's; the gap is replayed in one SkipCycles call when the chip
	// next acts, or by sync.
	due []int64

	// ranges partitions the mesh: one range when the phase runs inline only,
	// one per worker for the pool.
	ranges []chipRange

	// probe is the fault-injection hook (Machine.SetFaultProbe).
	probe func(node int, cycle int64)
}

// newDueSet partitions chips into max(workers, 1) near-equal ranges with
// every chip due at once — the early-safe default until the first phase
// reads the true wakes back.
func newDueSet(chips []*chip.Chip, workers int) *dueSet {
	n, parts := len(chips), max(workers, 1)
	ds := &dueSet{chips: chips, due: make([]int64, n), ranges: make([]chipRange, parts)}
	for k := range ds.ranges {
		ds.ranges[k] = chipRange{lo: k * n / parts, hi: (k + 1) * n / parts, stepping: -1}
	}
	return ds
}

// attach installs c as chip i and hooks its wakes into the due-set. The
// hook fires only on the machine goroutine between chip phases (drain,
// arrival wake-ups, Run entry, program loads), when no worker is running.
func (ds *dueSet) attach(i int, c *chip.Chip) {
	ds.chips[i] = c
	k := 0
	for i >= ds.ranges[k].hi {
		k++
	}
	r := &ds.ranges[k]
	c.SetWakeHook(func(at int64) {
		if at < ds.due[i] {
			ds.due[i] = at
			r.next = min(r.next, at)
		}
	})
}

// stepRange is the chip phase of cycle now over r: every chip whose due
// cycle has come replays the idle cycles it sat out, steps if it is in
// fact due, and is read back for its next event. Chips that are not due
// are not touched. On return r.stepped holds the chips that advanced to
// now+1, whose outbox and trace buffers hold the cycle's output.
func (ds *dueSet) stepRange(r *chipRange, now int64) {
	due, chips := ds.due[r.lo:r.hi], ds.chips[r.lo:r.hi]
	stepped, next := r.stepped[:0], NoEvent
	for k, at := range due {
		if at <= now {
			c, i := chips[k], r.lo+k
			r.stepping = i
			if d := now - c.Cycle; d > 0 {
				c.SkipCycles(d)
			}
			at = c.NextEvent(now)
			if at <= now {
				if ds.probe != nil {
					ds.probe(i, now)
				}
				c.Step(now)
				stepped = append(stepped, i)
				at = c.NextEvent(now + 1)
			}
			due[k] = at
		}
		next = min(next, at)
	}
	r.stepping = -1
	r.stepped, r.next = stepped, next
}

// stepInline runs the chip phase of cycle now on the calling goroutine,
// range by range, skipping ranges with nothing due.
func (ds *dueSet) stepInline(now int64) {
	for k := range ds.ranges {
		if r := &ds.ranges[k]; r.next <= now {
			ds.stepRange(r, now)
		}
	}
}

// nextEvent reports the earliest cycle >= now at which a chip may act, from
// the cached range minima: possibly early, never late.
func (ds *dueSet) nextEvent(now int64) int64 {
	next := NoEvent
	for k := range ds.ranges {
		next = min(next, ds.ranges[k].next)
	}
	return max(next, now)
}

// sync catches every chip up to cycle now, materializing the idle
// bookkeeping the phase defers, so that an observer sees the per-chip cycle
// counts and stall statistics of stepping every chip every cycle.
func (ds *dueSet) sync(now int64) {
	for _, c := range ds.chips {
		if d := now - c.Cycle; d > 0 {
			c.SkipCycles(d)
		}
	}
}
