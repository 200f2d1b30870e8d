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
//     *CrashError carrying the panic value, the deep stack captured at
//     the panic site, and the offending (node, cycle). A panic never
//     crosses the Supervisor boundary.
//
//   - Watchdogs. A wall-clock deadline (Options.Timeout) is enforced by
//     a monitor goroutine that raises the machine's atomic stop flag; the
//     run observes the flag at its existing loop-head sync point and
//     returns between cycles, so the engine hot path is untouched and
//     supervised runs stay bit-identical to unsupervised ones. A cycle budget (Options.CycleBudget) is
//     enforced deterministically by clamping each RunPhase's cycle
//     bound — no wall-clock involved, so budget exhaustion reproduces
//     exactly on any host and engine.
//
//   - Forensics. On a crash, deadline, or budget exhaustion the
//     Supervisor renders a livelock/deadlock diagnostic (Diagnose: per
//     chip NextEvent, queue and outbox depths, running-user and busy
//     counters) and, when Options.DumpPath is set, writes a crash-dump
//     snapshot via machine.Save so the failure can be reloaded with
//     `msim -restore` and replayed under any engine.
//
// If the run does not respond to the stop request within Options.Grace —
// a worker wedged inside a cycle, not a livelocked simulation — Do gives
// up waiting and returns a *StallError with Kind StallHang. The run
// goroutine still owns the machine in that case, so no snapshot is
// written and the machine must be abandoned (see IsHang).
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/cluster"
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
	// loop-head sync point and yields a *StallError (StallTimeout).
	Timeout time.Duration

	// CycleBudget caps the machine cycles one Do call may advance,
	// across all its RunPhase legs; 0 disables. Exhaustion yields a
	// *StallError (StallBudget). Enforcement is deterministic: the
	// budget clamps each leg's cycle bound, so the same scenario
	// exhausts at the same cycle on every host and engine.
	CycleBudget int64

	// DumpPath, when non-empty, is where a crash-dump snapshot is
	// written (atomically; see snap.WriteFileAtomic) on crash, timeout,
	// or budget exhaustion. The dump is a regular machine snapshot:
	// `msim -restore` loads it.
	DumpPath string

	// Grace is how long after a stop request the monitor waits for the
	// run to return before declaring it wedged (StallHang). Default
	// 10s; a hung run's goroutine is abandoned, not killed.
	Grace time.Duration
}

// defaultGrace bounds how long a timed-out run may ignore the stop flag
// before it is declared wedged.
const defaultGrace = 10 * time.Second

// StallKind classifies a *StallError.
type StallKind int

const (
	// StallTimeout: the wall-clock deadline expired; the
	// run observed the stop flag and returned cleanly.
	StallTimeout StallKind = iota
	// StallBudget: the cycle budget was exhausted (deterministic).
	StallBudget
	// StallHang: the run did not respond to the stop request within the
	// grace period; its goroutine was abandoned mid-run.
	StallHang
)

func (k StallKind) String() string {
	switch k {
	case StallTimeout:
		return "timeout"
	case StallBudget:
		return "cycle budget"
	case StallHang:
		return "hang"
	}
	return fmt.Sprintf("StallKind(%d)", int(k))
}

// StallError reports a watchdog firing: the supervised run exceeded its
// wall-clock deadline, exhausted its cycle budget, or wedged. The
// machine state is consistent (between cycles) except for StallHang.
type StallError struct {
	Kind    StallKind
	Cycle   int64         // machine cycle at detection (gauge for hangs)
	Elapsed time.Duration // wall time since Do entry
	Budget  int64         // the cycle budget (StallBudget)
	Timeout time.Duration // the wall deadline (StallTimeout/StallHang)

	Diagnostic string // Diagnose output at detection ("" for hangs)
	DumpPath   string // crash-dump location, "" if none was written
}

func (e *StallError) Error() string {
	switch e.Kind {
	case StallBudget:
		return fmt.Sprintf("guard: cycle budget (%d) exhausted at cycle %d", e.Budget, e.Cycle)
	case StallHang:
		return fmt.Sprintf("guard: run wedged: no response to the stop request within the grace period (last observed cycle %d, %v elapsed)", e.Cycle, e.Elapsed.Round(time.Millisecond))
	}
	return fmt.Sprintf("guard: wall-clock deadline (%v) exceeded at cycle %d", e.Timeout, e.Cycle)
}

// Unwrap lets errors.Is(err, context.DeadlineExceeded) detect the
// wall-clock kinds.
func (e *StallError) Unwrap() error {
	if e.Kind == StallBudget {
		return nil
	}
	return context.DeadlineExceeded
}

// CrashError reports a contained panic: the panic value, the goroutine
// stack captured at the panic site (worker-side for parallel-engine
// crashes), and the offending chip and cycle when they are known.
type CrashError struct {
	Value any    // the original panic value
	Stack []byte // stack at the panic site
	Cycle int64
	Node  int // -1 when the crash could not be attributed to a chip

	Diagnostic string // Diagnose output after the crash
	DumpPath   string // crash-dump location, "" if none was written
}

// Error is deliberately stack-free: CLIs print it to users directly; the
// Stack field is for logs and bug reports.
func (e *CrashError) Error() string {
	if e.Node >= 0 {
		return fmt.Sprintf("guard: run crashed at node %d, cycle %d: %v", e.Node, e.Cycle, e.Value)
	}
	return fmt.Sprintf("guard: run crashed near cycle %d: %v", e.Cycle, e.Value)
}

// crashSite is implemented by panic values that know which chip and
// cycle they struck (machine.WorkerPanic, faultinject.InjectedPanic).
type crashSite interface {
	CrashSite() (node int, cycle int64)
}

// IsHang reports whether err is a *StallError of Kind StallHang — the one
// failure class after which the machine is still owned by an abandoned
// run goroutine and must not be touched again (in particular, do not
// Close it: Close would block on the wedged run).
func IsHang(err error) bool {
	var se *StallError
	return errors.As(err, &se) && se.Kind == StallHang
}

// Class is the failure taxonomy every supervision layer shares — guard
// itself, the session service (internal/serve, where it is the
// failure_class JSON string) and the distributed coordinator
// (internal/dist, where it labels shard failures). DESIGN.md's
// "Supervision" table says who raises and who retries each.
type Class string

const (
	ClassCrash        Class = "crash"         // contained panic (*CrashError, a worker's reported panic)
	ClassStallTimeout Class = "stall-timeout" // a wall deadline expired; the run answered the stop
	ClassStallHang    Class = "stall-hang"    // the stop went unanswered past the grace period
	ClassLost         Class = "lost"          // a shard's connection died or went silent
	ClassBudget       Class = "budget"        // cycle budget exhausted
	ClassScenario     Class = "scenario"      // expect/check/staging error, thread fault, phase bound
)

// Transient reports whether a retry from the latest checkpoint can get
// past the failure. Budget and scenario failures are deterministic
// properties of the scenario: a replay reproduces them exactly.
func (c Class) Transient() bool {
	return c == ClassCrash || c == ClassStallTimeout || c == ClassStallHang || c == ClassLost
}

// Classify maps a run error to its class: guard's own typed errors by
// type and kind, errors that carry a class (dist.ShardFailure) by asking
// them, everything else — failed expectations, program faults, a phase
// that outran its own bound — as a scenario failure.
func Classify(err error) Class {
	var ce *CrashError
	if errors.As(err, &ce) {
		return ClassCrash
	}
	var se *StallError
	if errors.As(err, &se) {
		switch se.Kind {
		case StallTimeout:
			return ClassStallTimeout
		case StallHang:
			return ClassStallHang
		case StallBudget:
			return ClassBudget
		}
	}
	var cl interface{ FailureClass() Class }
	if errors.As(err, &cl) {
		return cl.FailureClass()
	}
	return ClassScenario
}

// ExitCode is the process exit code a CLI reports for a failed run, a
// function of the failure class alone so that msim, mshard and msimd's
// failure_class cannot disagree about what kind of failure a run ended
// in: 3 for a watchdog cutoff (wall clock, hang, cycle budget, or the
// run's own cycle bound expiring), 4 for a contained internal panic or a
// shard lost for good, 1 for everything else (failed expectations,
// program faults).
func ExitCode(err error) int {
	if errors.Is(err, machine.ErrCycleLimit) {
		return 3
	}
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
	var ce *CrashError
	if errors.As(err, &ce) {
		return ce.Diagnostic, ce.DumpPath
	}
	var se *StallError
	if errors.As(err, &se) {
		return se.Diagnostic, se.DumpPath
	}
	return "", ""
}

// A LegRunner executes machine.Run-shaped legs for a Supervisor: the
// machine itself in process, the distributed coordinator (internal/dist)
// across shard workers. RunPhase's budget clamp is written once over
// these two calls, so every transport exhausts a budget at the identical
// cycle.
type LegRunner interface {
	// Run has Machine.Run's contract: up to maxCycles cycles plus the
	// completion-detection quiet window, the cycles executed (excluding
	// that window), machine.ErrCycleLimit when only the bound expired.
	Run(maxCycles int64) (int64, error)
	// RunExact advances exactly n cycles — no completion detection, no
	// fast-forward — and errs only when it could not (a stop request, a
	// failed transport).
	RunExact(n int64) (int64, error)
}

// Supervisor wraps one machine for supervised runs. It is not itself
// concurrency-safe: one Do at a time, from one goroutine, exactly like
// the machine it guards.
type Supervisor struct {
	m   *machine.Machine
	leg LegRunner
	opt Options

	base        int64 // budget accounting base: machine cycle at New, re-based at Do entry
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
	var n int64
	err := s.Do(func() error {
		var e error
		n, e = s.RunPhase(maxCycles)
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
// request went unanswered for the grace period, with a StallHang. Errors
// fn returns pass through untouched unless they are watchdog classes,
// which get their diagnostics and dump attached here, after the machine
// has gone quiet.
func (s *Supervisor) Do(fn func() error) error {
	if s.supervising {
		return errors.New("guard: nested Do on one Supervisor")
	}
	s.supervising = true
	defer func() { s.supervising = false }()

	s.m.ClearStop()
	s.base = s.m.Cycle
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
			return &StallError{
				Kind:    StallHang,
				Cycle:   s.m.CycleGauge(),
				Elapsed: time.Since(start),
				Timeout: s.opt.Timeout,
			}
		}
	}
}

// RunPhase runs one leg, clamping maxCycles to the remaining cycle
// budget. The budget is exact: a budget-bound leg stops at machine cycle
// base+CycleBudget precisely (Run's bound is padded by the
// completion-detection quiet window; the clamp subtracts it back out), so
// exhaustion reproduces at the identical cycle on every host, engine and
// transport. When the global budget — not the leg's own bound — is what
// cut the run off, the error is a *StallError (StallBudget) that Do
// enriches with diagnostics and the dump on the way out. Outside a Do the
// budget counts from the cycle the Supervisor was built at.
func (s *Supervisor) RunPhase(maxCycles int64) (int64, error) {
	if s.opt.CycleBudget <= 0 {
		return s.leg.Run(maxCycles)
	}
	rem := s.opt.CycleBudget - (s.m.Cycle - s.base)
	budgetErr := func() *StallError {
		return &StallError{Kind: StallBudget, Cycle: s.m.Cycle, Budget: s.opt.CycleBudget}
	}
	if rem <= 0 {
		return 0, budgetErr()
	}
	if maxCycles+machine.QuietWindow <= rem {
		// The leg's own bound binds; its timeout is the caller's business.
		return s.leg.Run(maxCycles)
	}
	if bound := rem - machine.QuietWindow; bound > 0 {
		n, err := s.leg.Run(bound)
		if err != nil && errors.Is(err, machine.ErrCycleLimit) {
			return n, budgetErr()
		}
		return n, err
	}
	// Less budget left than one quiet window: advance the exact remainder
	// cycle by cycle (bit-identical to the engine loop, merely without the
	// idle fast-forward, over at most QuietWindow-1 cycles).
	n, err := s.leg.RunExact(rem)
	if err != nil {
		return n, err
	}
	return n, budgetErr()
}

// classify converts the run goroutine's outcome into the supervisor's
// typed errors, attaching diagnostics and the crash dump now that the
// machine is quiet again.
func (s *Supervisor) classify(o outcome, timedOut bool, elapsed time.Duration) error {
	m := s.m
	defer m.ClearStop()
	if o.panicVal != nil {
		ce := &CrashError{Value: o.panicVal, Stack: o.stack, Cycle: m.Cycle, Node: -1}
		if cs, ok := o.panicVal.(crashSite); ok {
			ce.Node, ce.Cycle = cs.CrashSite()
		}
		if wp, ok := o.panicVal.(*machine.WorkerPanic); ok {
			// Unwrap to the original panic value; prefer the worker-side
			// stack, which reaches the true panic site.
			ce.Value = wp.Value
			if len(wp.Stack) > 0 {
				ce.Stack = wp.Stack
			}
		}
		ce.Diagnostic = Diagnose(m)
		ce.DumpPath = s.writeDump(&ce.Diagnostic)
		return ce
	}
	var se *StallError
	if errors.As(o.err, &se) {
		se.Elapsed = elapsed
		se.Diagnostic = Diagnose(m)
		se.DumpPath = s.writeDump(&se.Diagnostic)
		return o.err
	}
	if timedOut && errors.Is(o.err, machine.ErrStopped) {
		st := &StallError{
			Kind:       StallTimeout,
			Cycle:      m.Cycle,
			Elapsed:    elapsed,
			Timeout:    s.opt.Timeout,
			Diagnostic: Diagnose(m),
		}
		st.DumpPath = s.writeDump(&st.Diagnostic)
		return st
	}
	return o.err
}

// writeDump writes the crash-dump snapshot if a path is configured,
// returning the path written ("" otherwise). A dump failure must never
// mask the primary failure, so it is appended to the diagnostic instead
// of being returned.
func (s *Supervisor) writeDump(diag *string) string {
	if s.opt.DumpPath == "" {
		return ""
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
		users := 0
		for vt := 0; vt < isa.NumUserSlots; vt++ {
			for cl := 0; cl < isa.NumClusters; cl++ {
				if c.Thread(vt, cl).Status == cluster.ThreadRunning {
					users++
				}
			}
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
			i, fmtEvent(c.NextEvent(now), now), users, !c.Quiescent(),
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
