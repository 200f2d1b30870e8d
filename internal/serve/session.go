// Package serve is the msimd session service: it accepts .wl scenario
// submissions over HTTP, multiplexes them across a supervised worker
// pool, and makes the failure containment built in PR 6 operational —
// every session runs under guard.Supervisor with mandatory wall/cycle
// budgets, is checkpointed to a spool at deterministic run-slice
// boundaries, and, when it crashes or stalls transiently, is retried
// from its latest checkpoint with capped exponential backoff, resuming
// bit-identically to a run that was never interrupted (DESIGN.md "The
// simulation service").
package serve

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
)

// State is a session's lifecycle state. Transitions:
//
//	queued ──▶ running ──▶ done
//	   ▲          │ ├────▶ failed
//	   │          │ ├────▶ canceled
//	(boot adopt)  │ └────▶ suspended ─(restart)─▶ queued
//	   │          ▼
//	   └──── retrying (transient failure; back to running after backoff)
//
// done, failed, and canceled are terminal. suspended means the server
// drained with the session in flight: its checkpoint stays in the spool
// and the next boot re-adopts it as queued.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateRetrying  State = "retrying"
	StateSuspended State = "suspended"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether the state is final for this server process.
// (suspended is final here but resumes after a restart.)
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Session is one submitted scenario and its execution state. All mutable
// fields are guarded by mu; the identity fields before it are fixed at
// admission.
type Session struct {
	ID     string
	Name   string // scenario name (diagnostics, list views)
	seq    uint64 // admission sequence number (chaos keying)
	source string // the .wl text, verbatim (respooled in checkpoints)
	sc     *core.Scenario

	// Admission-enforced budgets: every session has both.
	wall        time.Duration // per-attempt wall-clock deadline
	cycleBudget int64         // total simulated-cycle budget

	mu       sync.Mutex
	state    State
	retries  int           // transient failures recovered so far
	attempts int           // supervised attempts started (including the first)
	backoff  time.Duration // current retry backoff; nonzero only while retrying
	canceled bool          // cancellation requested (observed at quantum heads)
	sim      *core.Sim     // live machine while running (interrupt target)

	phases    []core.PhaseResult // completed phases, live-updated
	checks    int
	result    *core.ScenarioResult // set when done
	digest    string               // machine.Digest of the final state
	failure   string
	failClass guard.Class // last failure's class; sticky across a recovery
	dumpPath  string      // last crash dump, if any

	notify chan struct{} // closed and swapped on every visible change
	done   chan struct{} // closed on reaching a Terminal state
}

func newSession(id string, seq uint64, name, source string, sc *core.Scenario,
	wall time.Duration, cycleBudget int64) *Session {
	return &Session{
		ID: id, Name: name, seq: seq, source: source, sc: sc,
		wall: wall, cycleBudget: cycleBudget,
		state:  StateQueued,
		notify: make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// update applies fn under the lock and wakes every watcher.
func (s *Session) update(fn func()) {
	s.mu.Lock()
	fn()
	close(s.notify)
	s.notify = make(chan struct{})
	if s.state.Terminal() {
		select {
		case <-s.done:
		default:
			close(s.done)
		}
	}
	s.mu.Unlock()
}

// Cancel requests cancellation. Queued and retrying sessions observe it
// before their next quantum; a running session's machine is stopped at
// its next run-loop head. Terminal sessions are unaffected. It reports
// whether the request was accepted (false once terminal).
func (s *Session) Cancel() bool {
	var accepted bool
	s.update(func() {
		if s.state.Terminal() {
			return
		}
		accepted = true
		s.canceled = true
		if s.sim != nil {
			s.sim.M.RequestStop()
		}
	})
	return accepted
}

// interrupt stops the session's machine at its next run-loop head (drain).
func (s *Session) interrupt() {
	s.mu.Lock()
	if s.sim != nil {
		s.sim.M.RequestStop()
	}
	s.mu.Unlock()
}

func (s *Session) isCanceled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.canceled
}

// Done returns a channel closed when the session reaches a terminal
// state (done, failed, or canceled — not suspended).
func (s *Session) Done() <-chan struct{} { return s.done }

// attach/detach bracket an attempt: while attached, Cancel and drain can
// stop the machine mid-quantum.
func (s *Session) attach(sim *core.Sim) {
	s.update(func() {
		s.state = StateRunning
		s.backoff = 0
		s.sim = sim
		if s.canceled {
			sim.M.RequestStop()
		}
	})
}

func (s *Session) detach() {
	s.mu.Lock()
	s.sim = nil
	s.mu.Unlock()
}

// noteProgress publishes the run's completed phases and checks.
func (s *Session) noteProgress(run *core.ScenarioRun) {
	s.update(func() {
		s.phases = append(s.phases[:0], run.Phases()...)
		s.checks = run.Checks()
	})
}

// Info is the JSON view of a session.
type Info struct {
	ID       string  `json:"id"`
	Name     string  `json:"name"`
	State    State   `json:"state"`
	Retries  int     `json:"retries"`
	Attempts int     `json:"attempts"`          // supervised attempts started
	Backoff  string  `json:"backoff,omitempty"` // current retry backoff, while retrying
	Phases   []Phase `json:"phases,omitempty"`
	Checks   int     `json:"checks"`

	// Set on done:
	TotalCycles int64  `json:"total_cycles,omitempty"`
	Digest      string `json:"digest,omitempty"` // sha256 of the final machine snapshot

	// Set on failed (class also set while retrying; the classes and which
	// of them are retried are DESIGN.md's "Supervision" table):
	Failure      string      `json:"failure,omitempty"`
	FailureClass guard.Class `json:"failure_class,omitempty"`
	DumpPath     string      `json:"dump_path,omitempty"`
}

// Phase is the JSON view of one completed run phase.
type Phase struct {
	Name   string `json:"name"`
	Cycles int64  `json:"cycles"`
}

// Info snapshots the session for API responses.
func (s *Session) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.infoLocked()
}

func (s *Session) infoLocked() Info {
	in := Info{
		ID: s.ID, Name: s.Name, State: s.state, Retries: s.retries,
		Attempts: s.attempts,
		Checks:   s.checks, Digest: s.digest,
		Failure: s.failure, FailureClass: s.failClass, DumpPath: s.dumpPath,
	}
	if s.state == StateRetrying && s.backoff > 0 {
		in.Backoff = s.backoff.String()
	}
	for _, p := range s.phases {
		in.Phases = append(in.Phases, Phase{Name: p.Name, Cycles: p.Cycles})
	}
	if s.result != nil {
		in.TotalCycles = s.result.TotalCycles
	}
	return in
}

// watch returns a consistent snapshot and a channel that is closed on
// the next visible change — the streaming endpoint's poll primitive.
func (s *Session) watch() (Info, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.infoLocked(), s.notify
}
