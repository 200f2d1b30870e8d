package main

import (
	"fmt"

	"repro/internal/chip"
	"repro/internal/cluster"
	"repro/internal/isa"
	"repro/internal/machine"
)

// driveCounts are the work counts the traced driver takes at the same
// boundaries as its spans.
type driveCounts struct {
	busyCycles int64 // machine cycles stepped (not jumped over)
	ffJumps    int64 // clock jumps
	ffCycles   int64 // cycles jumped over
	chipSteps  int64 // Chip.Step calls
	chipSkips  int64 // Chip.SkipCycles calls
	nocSteps   int64 // Network.Step calls
}

// drive advances m exactly as machine.Run does under the serial event
// engine — same loop-head completion checks, same chip phase, outbox
// drain, network step, arrival wake-ups and idle fast-forward — but from
// outside the machine package, through public calls only, with a span
// around each layer boundary. It must leave the machine in the state
// Run leaves it in: the callers compare snapshot digests.
//
// The one liberty taken is inside the chip phase: the due-set scan runs
// first and the due chips then step as a batch, followed by the idle
// chips' SkipCycles, where machine.step interleaves the three per chip.
// Chips share no state inside a cycle (outboxes drain afterwards), so the
// order is unobservable, and it lets one span cover a cycle's steps
// without a clock read per chip.
func drive(m *machine.Machine, maxCycles int64, t *tracer, n *driveCounts) (int64, error) {
	nodes := m.NumNodes()
	running := make([]int, nodes)
	busy := make([]bool, nodes)
	issued := make([]uint64, nodes)
	runningUser, busyChips := 0, 0
	var issuedTotal uint64

	m.WakeAll()
	arrivalMark := make([]bool, nodes)
	var arrivalNodes []int
	for i, c := range m.Chips {
		if m.Net.HasArrivals(i) {
			arrivalMark[i] = true
			arrivalNodes = append(arrivalNodes, i)
		}
		running[i] = runningUserOf(c)
		runningUser += running[i]
		busy[i] = !c.Quiescent()
		if busy[i] {
			busyChips++
		}
		issued[i] = c.InstsIssued
		issuedTotal += c.InstsIssued
	}
	note := func(i int) {
		c := m.Chips[i]
		if r := runningUserOf(c); r != running[i] {
			runningUser += r - running[i]
			running[i] = r
		}
		if b := !c.Quiescent(); b != busy[i] {
			if b {
				busyChips++
			} else {
				busyChips--
			}
			busy[i] = b
		}
		if v := c.InstsIssued; v != issued[i] {
			issuedTotal += v - issued[i]
			issued[i] = v
		}
	}

	due := make([]int, 0, nodes)
	rest := make([]int, 0, nodes)
	start := m.Cycle
	bound := start + maxCycles + machine.QuietWindow
	idle := int64(0)
	prevIssued := issuedTotal
	for m.Cycle < bound {
		done := runningUser == 0 && busyChips == 0 && m.Net.Quiescent()
		if done && issuedTotal == prevIssued {
			idle++
			if idle >= machine.QuietWindow {
				return m.Cycle - start - idle, m.FaultError()
			}
		} else {
			prevIssued, idle = issuedTotal, 0
		}

		// One machine cycle (machine.step, serial event engine).
		now := m.Cycle
		t.begin(spMachineScan)
		due, rest = due[:0], rest[:0]
		for i, c := range m.Chips {
			if c.NextEvent(now) <= now {
				due = append(due, i)
			} else {
				rest = append(rest, i)
			}
		}
		t.next(spChipStep)
		for _, i := range due {
			m.Chips[i].Step(now)
		}
		if len(rest) > 0 {
			t.next(spChipSkip)
			for _, i := range rest {
				m.Chips[i].SkipCycles(1)
			}
		}
		t.next(spMachineDrain)
		for _, c := range m.Chips {
			c.FlushTrace()
			c.FlushNet(now)
		}
		t.next(spMachineNote)
		for _, i := range due {
			note(i)
		}
		netStepped := false
		if m.Net.NeedsStep(now) {
			t.next(spNocStep)
			m.Net.Step(now)
			netStepped = true
			n.nocSteps++
			t.next(spMachineNote)
		}
		keep := arrivalNodes[:0]
		for _, i := range arrivalNodes {
			if m.Net.HasArrivals(i) {
				keep = append(keep, i)
			} else {
				arrivalMark[i] = false
			}
		}
		if netStepped {
			for _, i := range m.Net.DeliveredNodes() {
				if !arrivalMark[i] {
					arrivalMark[i] = true
					keep = append(keep, i)
				}
			}
		}
		arrivalNodes = keep
		for _, i := range keep {
			m.Chips[i].WakeAt(now + 1)
		}
		m.Cycle++
		n.busyCycles++
		n.chipSteps += int64(len(due))
		n.chipSkips += int64(len(rest))

		// Idle fast-forward (machine.fastForward).
		t.next(spMachineScan)
		next := m.NextEvent(m.Cycle)
		if next > bound {
			next = bound
		}
		d := next - m.Cycle
		if d > 0 {
			if runningUser == 0 && busyChips == 0 && m.Net.Quiescent() {
				room := machine.QuietWindow - idle - 1
				if d > room {
					d = room
				}
				if d > 0 {
					idle += d
				}
			} else {
				idle = 0
			}
		}
		if d > 0 {
			t.next(spChipSkip)
			for _, c := range m.Chips {
				c.SkipCycles(d)
			}
			m.Cycle += d
			n.ffJumps++
			n.ffCycles += d
			n.chipSkips += int64(nodes)
		}
		t.end()
	}
	if m.UserDone() {
		return m.Cycle - start, m.FaultError()
	}
	return m.Cycle - start, fmt.Errorf("benchmark: traced driver: %w within %d cycles", machine.ErrCycleLimit, maxCycles)
}

// runningUserOf counts a chip's running user H-Threads (the quantity
// machine.Run's completion check is built on).
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
