// Package guard is the run-supervision layer of the simulator (DESIGN.md,
// "Supervised runs & fault injection"): it wraps Machine.Run-shaped work
// so that one misbehaving run — a panicking engine or scenario, a
// wall-clock hang, a runaway cycle count — is contained, diagnosed, and
// reported as a typed error instead of taking the process down or
// stalling it silently. This is the foundation the long-running `msimd`
// service and the distributed engine sit on: every session failure must
// stay inside its session.
//
// A Supervisor provides, in one Do call:
//
//   - Panic containment. Panics out of the supervised function — serial
//     engine steps, scenario staging, and (via machine.WorkerPanic)
//     parallel worker goroutines — are recovered and converted to a
//     ClassCrash *Failure carrying the panic value, the deep stack
//     captured at the panic site, and the offending (node, cycle). A
//     panic never crosses the Supervisor boundary.
//
//   - Watchdogs. A wall-clock deadline (Options.Timeout) is enforced by
//     a monitor goroutine that raises the machine's atomic stop flag; the
//     run observes the flag at its existing loop-head sync point and
//     returns between cycles, so the engine hot path is untouched and
//     supervised runs stay bit-identical to unsupervised ones. A cycle budget (Options.CycleBudget) is
//     enforced deterministically by clamping the cycle each RunPhase
//     stops at — no wall-clock involved, so budget exhaustion reproduces
//     exactly on any host and engine.
//
//   - Forensics. On a crash, deadline, or cycle bound (budget or the
//     run's own) the Supervisor renders a livelock/deadlock diagnostic
//     (Diagnose: per chip NextEvent, queue and outbox depths, running-user
//     and busy counters) and, with Options.DumpPath, writes a crash-dump
//     snapshot via machine.Save that `msim -restore` replays — unless a
//     crash left some nodes a cycle ahead of the others.
//
// If the run does not respond to the stop request within Options.Grace —
// a worker wedged inside a cycle, not a livelocked simulation — Do gives
// up waiting and returns a ClassStallHang *Failure. The run goroutine
// still owns the machine in that case, so no snapshot is written and the
// machine must be abandoned (see IsHang).
package guard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/snap"
)

// Options configures a Supervisor. The zero value supervises with panic
// containment only (no watchdogs, no dump).
type Options struct {
	// Timeout is the wall-clock budget for one Do call; 0 disables the
	// wall-clock watchdog. Exceeding it stops the run at its next
	// loop-head sync point and yields a ClassStallTimeout *Failure.
	Timeout time.Duration

	// CycleBudget caps the machine cycles the supervised run may advance
	// past the cycle the Supervisor was built at, across all its RunPhase
	// legs; 0 disables. A machine restored after New counts from New's
	// cycle, so one budget spans a resumed run. Exhaustion yields a
	// ClassBudget *Failure. Enforcement is deterministic: the budget
	// clamps the cycle each leg stops at, so the same scenario exhausts
	// at the same cycle on every host and engine.
	CycleBudget int64

	// DumpPath, when non-empty, is where a crash-dump snapshot is
	// written (atomically; see snap.WriteFileAtomic) on crash, timeout,
	// or budget exhaustion. The dump is a regular machine snapshot:
	// `msim -restore` loads it. A crash inside a cycle that other nodes
	// had already stepped writes none (it would not restore).
	DumpPath string

	// Grace is how long after a stop request the monitor waits for the
	// run to return before declaring it wedged (ClassStallHang). Default
	// 10s; a hung run's goroutine is abandoned, not killed.
	Grace time.Duration
}

// defaultGrace bounds how long a timed-out run may ignore the stop flag
// before it is declared wedged.
const defaultGrace = 10 * time.Second

// Failure is the one error type a Supervisor raises; Class says which
// kind of failure it is (ClassCrash, ClassStallTimeout, ClassStallHang or
// ClassBudget). The machine state is consistent — between cycles — for
// every class but ClassStallHang, after which the run goroutine still owns
// the machine (see IsHang).
type Failure struct {
	Class Class
	Cycle int64 // machine cycle at detection (the gauge for hangs)
	Node  int   // crash: the crashed chip, -1 when unattributed

	Value any    // crash: the original panic value
	Stack []byte // crash: the stack at the panic site

	Elapsed time.Duration // wall time since Do entry
	Budget  int64         // the limit that tripped: the cycle budget (ClassBudget)
	Timeout time.Duration // or the wall deadline (ClassStallTimeout, ClassStallHang)

	Diagnostic string // Diagnose output at detection ("" for hangs)
	DumpPath   string // crash-dump location, "" if none was written

	Err error // budget: the run's own bound (machine.ErrCycleLimit) that tripped, nil for the supervisor's
}

// Error is deliberately stack-free: CLIs print it to users directly; the
// Stack field is for logs and bug reports.
func (f *Failure) Error() string {
	switch f.Class {
	case ClassCrash:
		if f.Node >= 0 {
			return fmt.Sprintf("guard: run crashed at node %d, cycle %d: %v", f.Node, f.Cycle, f.Value)
		}
		return fmt.Sprintf("guard: run crashed near cycle %d: %v", f.Cycle, f.Value)
	case ClassBudget:
		if f.Err != nil {
			return f.Err.Error()
		}
		return fmt.Sprintf("guard: cycle budget (%d) exhausted at cycle %d", f.Budget, f.Cycle)
	case ClassStallHang:
		return fmt.Sprintf("guard: run wedged: no response to the stop request within the grace period (last observed cycle %d, %v elapsed)", f.Cycle, f.Elapsed.Round(time.Millisecond))
	}
	return fmt.Sprintf("guard: wall-clock deadline (%v) exceeded at cycle %d", f.Timeout, f.Cycle)
}

// Unwrap lets errors.Is find context.DeadlineExceeded in the wall-clock
// classes and machine.ErrCycleLimit in a run's own bound.
func (f *Failure) Unwrap() error {
	if f.Class == ClassStallTimeout || f.Class == ClassStallHang {
		return context.DeadlineExceeded
	}
	return f.Err
}

// crashSite is implemented by panic values that know which chip and
// cycle they struck (machine.WorkerPanic, faultinject.InjectedPanic).
type crashSite interface {
	CrashSite() (node int, cycle int64)
}

// IsHang reports whether err is a ClassStallHang *Failure — the one
// failure after which the machine is still owned by an abandoned run
// goroutine and must not be touched again (in particular, do not Close
// it: Close would block on the wedged run).
func IsHang(err error) bool {
	var f *Failure
	return errors.As(err, &f) && f.Class == ClassStallHang
}

// Class is the failure taxonomy every supervision layer shares — guard
// itself, the session service (internal/serve, where it is the
// failure_class JSON string) and the distributed coordinator
// (internal/dist, where it labels shard failures). DESIGN.md's
// "Supervision" table says who raises and who retries each.
type Class string

const (
	ClassCrash        Class = "crash"         // contained panic (a *Failure, a worker's reported panic)
	ClassStallTimeout Class = "stall-timeout" // a wall deadline expired; the run answered the stop
	ClassStallHang    Class = "stall-hang"    // the stop went unanswered past the grace period
	ClassLost         Class = "lost"          // a shard's connection died or went silent
	ClassBudget       Class = "budget"        // a cycle bound ran out: the supervisor's budget or the run's own
	ClassScenario     Class = "scenario"      // expect/check/staging error, thread fault
)

// Transient reports whether a retry from the latest checkpoint can get
// past the failure. Budget and scenario failures are deterministic
// properties of the scenario: a replay reproduces them exactly.
func (c Class) Transient() bool {
	return c == ClassCrash || c == ClassStallTimeout || c == ClassStallHang || c == ClassLost
}

// Classify maps a run error to its class: a *Failure's own, else the class
// of an error that carries one (dist.ShardFailure), else ClassBudget for a
// run that outran its own cycle bound (machine.ErrCycleLimit), else
// ClassScenario — failed expectations, program faults, staging errors.
func Classify(err error) Class {
	var f *Failure
	if errors.As(err, &f) {
		return f.Class
	}
	var cl interface{ FailureClass() Class }
	if errors.As(err, &cl) {
		return cl.FailureClass()
	}
	if errors.Is(err, machine.ErrCycleLimit) {
		return ClassBudget
	}
	return ClassScenario
}

// ExitCode is the process exit code a CLI reports for a failed run, a
// function of the failure class alone so that msim and msimd's
// failure_class cannot disagree about what kind of failure a run ended
// in: 3 for a cutoff (wall clock, hang, or a cycle bound), 4 for a
// contained internal panic or a shard lost for good, 1 for everything
// else (failed expectations, program faults).
func ExitCode(err error) int {
	switch Classify(err) {
	case ClassStallTimeout, ClassStallHang, ClassBudget:
		return 3
	case ClassCrash, ClassLost:
		return 4
	}
	return 1
}

// Forensics extracts what a supervisor attached to a failure: the
// Diagnose report and the crash-dump path ("" when err carries none).
func Forensics(err error) (diagnostic, dumpPath string) {
	var f *Failure
	if errors.As(err, &f) {
		return f.Diagnostic, f.DumpPath
	}
	return "", ""
}

// A LegRunner runs a leg's completion loop for a Supervisor: the machine
// itself in process, the distributed coordinator (internal/dist) across
// shard workers. RunPhase's budget clamp is written once over this call,
// so every transport exhausts a budget at the identical cycle.
type LegRunner interface {
	// RunLoop has machine.Machine.RunLoop's contract: step the leg under
	// loop until it ends (true, with its verdict) or the machine reaches
	// cycle until (false); a stop request or a failed transport errs.
	RunLoop(loop *machine.QuietLoop, until int64) (bool, error)
}

// Supervisor wraps one machine for supervised runs. It is not itself
// concurrency-safe: one Do at a time, from one goroutine, exactly like
// the machine it guards.
type Supervisor struct {
	m   *machine.Machine
	leg LegRunner
	opt Options

	base        int64 // budget accounting base: machine cycle at New
	supervising bool
}

// New builds a Supervisor over m, whose legs m runs itself.
func New(m *machine.Machine, opt Options) *Supervisor {
	return NewOver(m, m, opt)
}

// NewOver builds a Supervisor whose legs run on leg while m — the
// machine that is authoritative between legs — is what the budget is
// counted on and what watchdogs and forensics address.
func NewOver(leg LegRunner, m *machine.Machine, opt Options) *Supervisor {
	return &Supervisor{m: m, leg: leg, opt: opt, base: m.Cycle}
}

// Run supervises a single machine.Run leg: Do around one RunPhase. This
// is the drop-in supervised form of Machine.Run.
func (s *Supervisor) Run(maxCycles int64) (int64, error) {
	loop := machine.NewLeg(maxCycles)
	var n int64
	err := s.Do(func() error {
		_, e := s.RunPhase(&loop, math.MaxInt64)
		n = loop.Ran(s.m.Cycle)
		return e
	})
	return n, err
}

// outcome carries the supervised function's result (or panic) from the
// run goroutine back to Do.
type outcome struct {
	err      error
	panicVal any
	stack    []byte
}

// Do runs fn under supervision: panic containment, the wall-clock
// watchdog, and failure forensics. fn runs on a dedicated goroutine (the
// machine is not goroutine-affine, and the monitor must be able to give
// up on a wedged run); Do returns when fn does — or, after a stop
// request went unanswered for the grace period, with a ClassStallHang
// *Failure. Errors fn returns pass through untouched unless they carry a
// *Failure, which gets its diagnostics and dump attached here, after the
// machine has gone quiet.
func (s *Supervisor) Do(fn func() error) error {
	if s.supervising {
		return errors.New("guard: nested Do on one Supervisor")
	}
	s.supervising = true
	defer func() { s.supervising = false }()

	s.m.ClearStop()
	start := time.Now()

	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if v := recover(); v != nil {
				// The stack here still includes the panicking frames —
				// recover runs before the unwind completes — so serial
				// engine crashes get full depth; parallel crashes carry
				// their own worker-side stack in the WorkerPanic.
				done <- outcome{panicVal: v, stack: debug.Stack()}
			}
		}()
		done <- outcome{err: fn()}
	}()

	var timeoutCh <-chan time.Time
	if s.opt.Timeout > 0 {
		t := time.NewTimer(s.opt.Timeout)
		defer t.Stop()
		timeoutCh = t.C
	}
	var graceCh <-chan time.Time
	var graceTimer *time.Timer
	defer func() {
		if graceTimer != nil {
			graceTimer.Stop()
		}
	}()
	timedOut := false
	stop := func() {
		timedOut = true
		timeoutCh = nil
		s.m.RequestStop()
		g := s.opt.Grace
		if g <= 0 {
			g = defaultGrace
		}
		graceTimer = time.NewTimer(g)
		graceCh = graceTimer.C
	}
	for {
		select {
		case o := <-done:
			return s.classify(o, timedOut, time.Since(start))
		case <-timeoutCh:
			stop()
		case <-graceCh:
			return &Failure{
				Class:   ClassStallHang,
				Cycle:   s.m.CycleGauge(),
				Elapsed: time.Since(start),
				Timeout: s.opt.Timeout,
			}
		}
	}
}

// RunPhase runs loop, one leg's completion loop, until the leg ends or
// the machine reaches until, and reports whether the leg ended. A cycle
// budget clamps until to base+CycleBudget: a leg still going there stops
// at that cycle precisely, on every host, engine and transport, with a
// ClassBudget *Failure that Do enriches with diagnostics and the dump on
// the way out.
func (s *Supervisor) RunPhase(loop *machine.QuietLoop, until int64) (bool, error) {
	end := int64(math.MaxInt64)
	if s.opt.CycleBudget > 0 {
		end = s.base + s.opt.CycleBudget
	}
	if s.m.Cycle < end {
		ended, err := s.leg.RunLoop(loop, min(until, end))
		if ended || err != nil || s.m.Cycle < end {
			return ended, err
		}
	}
	return false, &Failure{Class: ClassBudget, Cycle: s.m.Cycle, Budget: s.opt.CycleBudget}
}

// classify converts the run goroutine's outcome into a *Failure when it
// is one, attaching diagnostics and the crash dump now that the machine is
// quiet again.
func (s *Supervisor) classify(o outcome, timedOut bool, elapsed time.Duration) error {
	m := s.m
	defer m.ClearStop()
	var f *Failure
	switch {
	case o.panicVal != nil:
		f = &Failure{Class: ClassCrash, Value: o.panicVal, Stack: o.stack, Cycle: m.Cycle, Node: -1}
		if cs, ok := o.panicVal.(crashSite); ok {
			f.Node, f.Cycle = cs.CrashSite()
		}
		if wp, ok := o.panicVal.(*machine.WorkerPanic); ok {
			// Unwrap to the original panic value; prefer the worker-side
			// stack, which reaches the true panic site.
			f.Value = wp.Value
			if len(wp.Stack) > 0 {
				f.Stack = wp.Stack
			}
		}
		o.err = f
	case errors.As(o.err, &f):
	case timedOut && errors.Is(o.err, machine.ErrStopped):
		f = &Failure{Class: ClassStallTimeout, Cycle: m.Cycle, Timeout: s.opt.Timeout}
		o.err = f
	case errors.Is(o.err, machine.ErrCycleLimit): // the run's own bound
		f = &Failure{Class: ClassBudget, Cycle: m.Cycle, Err: o.err}
		o.err = f
	default:
		return o.err
	}
	f.Elapsed = elapsed
	f.Diagnostic = Diagnose(m)
	f.DumpPath = s.writeDump(&f.Diagnostic)
	return o.err
}

// writeDump writes the crash-dump snapshot if a path is configured,
// returning the path written ("" otherwise). A dump failure must never
// mask the primary failure, so it is appended to the diagnostic instead
// of being returned. A crash inside a cycle that other nodes had already
// stepped leaves the machine between two cycles, a state no restore
// accepts: it gets no dump, and the diagnostic says why.
func (s *Supervisor) writeDump(diag *string) string {
	if s.opt.DumpPath == "" {
		return ""
	}
	for i, c := range s.m.Chips {
		if c.Cycle > s.m.Cycle {
			*diag += fmt.Sprintf("\n(no crash dump: node %d had already stepped cycle %d, so the machine is between two cycles and cannot be restored)", i, s.m.Cycle)
			return ""
		}
	}
	if err := snap.WriteFileAtomic(s.opt.DumpPath, s.m.Save); err != nil {
		*diag += fmt.Sprintf("\n(crash dump failed: %v)", err)
		return ""
	}
	return s.opt.DumpPath
}

// diagMaxNodes caps the per-node section of a diagnostic; beyond it only
// non-quiescent nodes are listed.
const diagMaxNodes = 64

// Diagnose renders a livelock/deadlock report of the machine's current
// state: the clock, network quiescence, and per chip the next event,
// running user threads, queue and outbox depths, and pending resends —
// the quantities that distinguish "deadlocked" (all NextEvents at
// infinity), "livelocked" (resend storms, refused deliveries), and
// "merely slow". Safe only while no run is in flight (the supervisor
// calls it after the run returned).
func Diagnose(m *machine.Machine) string {
	var b strings.Builder
	now := m.Cycle
	fmt.Fprintf(&b, "cycle %d; network quiescent=%v; machine next event=%s\n",
		now, m.Net.Quiescent(), fmtEvent(m.NextEvent(now), now))
	listed, skipped := 0, 0
	for i, c := range m.Chips {
		if c.Quiescent() && len(m.Chips) > diagMaxNodes {
			skipped++
			continue
		}
		listed++
		if listed > diagMaxNodes {
			skipped++
			continue
		}
		var q []string
		for p := 0; p < noc.NumPriorities; p++ {
			q = append(q, fmt.Sprint(c.MsgQueue(p).Len()))
		}
		var e []string
		for cl := 0; cl < isa.NumClusters; cl++ {
			e = append(e, fmt.Sprint(c.EventQueue(cl).Len()))
		}
		fmt.Fprintf(&b, "node %-3d next=%-8s users=%d busy=%-5v outbox=%d resends=%d msgq=[%s] evq=[%s] exc=%d credits=%d issued=%d\n",
			i, fmtEvent(c.NextEvent(now), now), c.RunningUser(), !c.Quiescent(),
			c.OutboxLen(), c.PendingResends(),
			strings.Join(q, " "), strings.Join(e, " "),
			c.ExcQueue().Len(), c.Credits(), c.InstsIssued)
	}
	if skipped > 0 {
		fmt.Fprintf(&b, "(%d quiescent/overflow node(s) elided)\n", skipped)
	}
	return strings.TrimRight(b.String(), "\n")
}

// fmtEvent renders a NextEvent cycle relative to now; NoEvent as "-".
func fmtEvent(at, now int64) string {
	if at == machine.NoEvent {
		return "-"
	}
	return fmt.Sprintf("+%d", at-now)
}
