package serve

// The Server: admission control, the supervised worker pool, the
// retry/recovery loop, and graceful drain. Design rules that everything
// here follows:
//
//   - A session never shares mutable state with another: each gets its
//     own machine, its own supervisor, its own spool files. A contained
//     crash poisons only its own machine, which is discarded — recovery
//     always boots a fresh simulator and restores the latest checkpoint.
//   - Recovery restores the latest slice checkpoint and Seeks the run to
//     its spooled position, so a resumed session finishes bit-identical
//     to an uninterrupted one — and to msim: slicing changes no result.
//   - Budgets are mandatory and enforced by one guard.Supervisor per
//     attempt, which drives the scenario (core.ScenarioRun.Drive): the
//     wall deadline is per attempt (a retry gets a fresh clock; progress
//     persists via checkpoints), the cycle budget is global across
//     attempts and cuts off at exactly its cycle (simulated cycles are
//     deterministic, so exhaustion reproduces exactly).
//   - Interrupts (cancel, drain) are observed at quantum boundaries and,
//     via machine.RequestStop, at run-loop heads mid-quantum. guard.Do
//     wipes pending stop requests at entry, so the flag checks at quantum
//     boundaries are what make interrupt delivery reliable; the in-flight
//     stop just shortens the current slice.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/machine"
)

// Config parameterizes a Server. The zero value is unusable; Spool is
// required and New applies the documented defaults to everything else.
type Config struct {
	Spool string // checkpoint spool directory (required; created if absent)

	Workers int // concurrent sessions (default: GOMAXPROCS, capped at 8)
	Queue   int // bounded admission queue beyond the running sessions (default 64)

	// Admission caps and defaults. Budgets are mandatory: a scenario
	// without deadline/budget directives gets the defaults; one whose
	// declared budgets exceed the caps is rejected (HTTP 422).
	MaxNodes      int           // mesh-size cap (default 1024, the DSL limit)
	MaxCycles     int64         // cycle-budget cap (default 1e9)
	DefaultCycles int64         // budget when the scenario declares none (default 50e6)
	MaxWall       time.Duration // wall-deadline cap (default 5m)
	DefaultWall   time.Duration // deadline when the scenario declares none (default 1m)

	// Execution.
	CheckpointEvery int64         // run-slice size in cycles; checkpoint cadence (default 4096)
	Retries         int           // max transient-failure retries per session (default 3)
	Backoff         time.Duration // initial retry backoff (default 100ms)
	BackoffCap      time.Duration // backoff ceiling (default 5s)
	Grace           time.Duration // guard hang grace (0 = guard default)

	Chaos *Chaos               // fault injection (nil = none)
	Logf  func(string, ...any) // event log (nil = silent)
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// withDefaults validates and fills in cfg.
func (c Config) withDefaults() (Config, error) {
	if c.Spool == "" {
		return c, errors.New("serve: Config.Spool is required")
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 1024
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 1e9
	}
	if c.DefaultCycles <= 0 {
		c.DefaultCycles = 50e6
	}
	if c.MaxWall <= 0 {
		c.MaxWall = 5 * time.Minute
	}
	if c.DefaultWall <= 0 {
		c.DefaultWall = time.Minute
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 4096
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 5 * time.Second
	}
	if c.DefaultCycles > c.MaxCycles || c.DefaultWall > c.MaxWall {
		return c, errors.New("serve: default budgets exceed their caps")
	}
	return c, nil
}

// Rejection is an admission failure. Code selects the HTTP status; see
// the handler table in http.go.
type Rejection struct {
	Code       string // "draining", "parse", "over-cap", "busy"
	Detail     string
	RetryAfter time.Duration // hint for "busy" (429 Retry-After)
}

func (r *Rejection) Error() string { return fmt.Sprintf("%s: %s", r.Code, r.Detail) }

// Stats are the server's monotonic counters plus instantaneous gauges.
type Stats struct {
	Submitted uint64 `json:"submitted"` // sessions accepted via Submit
	Adopted   uint64 `json:"adopted"`   // sessions re-adopted from the spool at boot
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	Suspended uint64 `json:"suspended"`
	Retries   uint64 `json:"retries"` // transient failures recovered
	Shed      uint64 `json:"shed"`    // admissions refused with queue full

	// Recovery observability.
	Recovered   uint64 `json:"recovered"`   // sessions done after >= 1 retry
	Restores    uint64 `json:"restores"`    // attempts resumed from a machine checkpoint
	Quarantined uint64 `json:"quarantined"` // unreadable spool checkpoints renamed aside at boot

	Queued   int  `json:"queued"` // gauge: sessions waiting for a worker
	Running  int  `json:"running"`
	Draining bool `json:"draining"`
}

// Server is the msimd session service. Create with New, serve HTTP via
// Handler, stop with Drain.
type Server struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*Session
	order    []string // admission order, for List
	queue    chan *Session
	draining bool
	seq      uint64
	stats    Stats

	wg sync.WaitGroup
}

// New builds a Server: it creates the spool directory if needed, adopts
// every checkpointed session left by a previous process, and starts the
// worker pool.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Spool, 0o755); err != nil {
		return nil, err
	}
	sv := &Server{cfg: cfg, sessions: make(map[string]*Session)}
	adopted, err := sv.adopt()
	if err != nil {
		return nil, err
	}
	sv.queue = make(chan *Session, cfg.Queue+len(adopted))
	for _, s := range adopted {
		sv.register(s)
		sv.queue <- s
		sv.stats.Adopted++
	}
	for i := 0; i < cfg.Workers; i++ {
		sv.wg.Add(1)
		go sv.worker()
	}
	return sv, nil
}

// adopt loads every spooled checkpoint into a queued session. A
// checkpoint that no longer parses is renamed aside (never deleted — it
// may be forensic evidence) and skipped.
func (sv *Server) adopt() ([]*Session, error) {
	ids, err := listCheckpoints(sv.cfg.Spool)
	if err != nil {
		return nil, err
	}
	var adopted []*Session
	for _, id := range ids {
		path := ckptPath(sv.cfg.Spool, id)
		ck, err := readCheckpoint(path)
		if err == nil && ck.ID != id {
			err = fmt.Errorf("checkpoint identifies as %q", ck.ID)
		}
		var sc *core.Scenario
		if err == nil {
			sc, err = core.ScenarioFromDSL(ck.Name, ck.Source)
		}
		if err != nil {
			// Quarantine, never delete: a torn or corrupt checkpoint is
			// forensic evidence of the crash that produced it. (adopt runs
			// single-threaded inside New, before the pool starts.)
			sv.cfg.logf("spool: quarantining %s: %v", path, err)
			os.Rename(path, path+".bad")
			sv.stats.Quarantined++
			continue
		}
		s := newSession(id, 0, ck.Name, ck.Source, sc,
			time.Duration(ck.WallNanos), ck.CycleBudget)
		s.seq = sv.seqFromID(id)
		s.retries = ck.Retries
		s.phases = append(s.phases, ck.Pos.Phases...)
		s.checks = ck.Pos.Checks
		adopted = append(adopted, s)
		sv.cfg.logf("spool: adopted session %s (%s) at step %d", id, ck.Name, ck.Pos.Next)
	}
	return adopted, nil
}

// seqFromID recovers the admission sequence number from a
// server-allocated ID ("s%06d"), bumping the allocator past it so new
// IDs never collide with adopted ones. Foreign IDs get a fresh number.
func (sv *Server) seqFromID(id string) uint64 {
	var n uint64
	if _, err := fmt.Sscanf(id, "s%06d", &n); err == nil && fmt.Sprintf("s%06d", n) == id {
		if n > sv.seq {
			sv.seq = n
		}
		return n
	}
	sv.seq++
	return sv.seq
}

func (sv *Server) register(s *Session) {
	sv.sessions[s.ID] = s
	sv.order = append(sv.order, s.ID)
}

// Submit admits a scenario: parse, enforce budgets and caps, write the
// admission checkpoint, enqueue. All rejections are *Rejection errors.
func (sv *Server) Submit(name, source string) (*Session, error) {
	if name == "" {
		name = "scenario.wl"
	}
	sc, err := core.ScenarioFromDSL(name, source)
	if err != nil {
		return nil, &Rejection{Code: "parse", Detail: err.Error()}
	}
	if sc.Plan.Sweep != nil {
		// Sweeps fork machines mid-run, which the session checkpoint
		// format has no position encoding for; run them under msim.
		return nil, &Rejection{Code: "unsupported",
			Detail: "sweep scenarios are not supported by the session service"}
	}
	nodes := sc.Plan.Dims[0] * sc.Plan.Dims[1] * sc.Plan.Dims[2]
	if nodes > sv.cfg.MaxNodes {
		return nil, &Rejection{Code: "over-cap",
			Detail: fmt.Sprintf("mesh has %d nodes, server cap is %d", nodes, sv.cfg.MaxNodes)}
	}
	wall := sc.Plan.Deadline
	if wall == 0 {
		wall = sv.cfg.DefaultWall
	}
	if wall > sv.cfg.MaxWall {
		return nil, &Rejection{Code: "over-cap",
			Detail: fmt.Sprintf("deadline %v exceeds server cap %v", wall, sv.cfg.MaxWall)}
	}
	budget := sc.Plan.CycleBudget
	if budget == 0 {
		budget = sv.cfg.DefaultCycles
	}
	if budget > sv.cfg.MaxCycles {
		return nil, &Rejection{Code: "over-cap",
			Detail: fmt.Sprintf("cycle budget %d exceeds server cap %d", budget, sv.cfg.MaxCycles)}
	}

	sv.mu.Lock()
	if sv.draining {
		sv.mu.Unlock()
		return nil, &Rejection{Code: "draining", Detail: "server is draining; not accepting sessions"}
	}
	sv.seq++
	s := newSession(fmt.Sprintf("s%06d", sv.seq), sv.seq, name, source, sc, wall, budget)
	// Spool the admission checkpoint before committing the slot: once
	// Submit returns, the session survives a server crash.
	err = writeCheckpoint(ckptPath(sv.cfg.Spool, s.ID), &checkpoint{
		ID: s.ID, Name: name, Source: source,
		WallNanos: int64(wall), CycleBudget: budget,
	})
	if err != nil {
		sv.mu.Unlock()
		return nil, fmt.Errorf("serve: spooling admission checkpoint: %v", err)
	}
	select {
	case sv.queue <- s:
	default:
		sv.stats.Shed++
		sv.mu.Unlock()
		os.Remove(ckptPath(sv.cfg.Spool, s.ID))
		return nil, &Rejection{Code: "busy",
			Detail:     fmt.Sprintf("admission queue full (%d waiting)", cap(sv.queue)),
			RetryAfter: time.Second}
	}
	sv.register(s)
	sv.stats.Submitted++
	sv.mu.Unlock()
	return s, nil
}

// Get returns a session by ID.
func (sv *Server) Get(id string) (*Session, bool) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	s, ok := sv.sessions[id]
	return s, ok
}

// List returns all sessions in admission order.
func (sv *Server) List() []*Session {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	out := make([]*Session, 0, len(sv.order))
	for _, id := range sv.order {
		out = append(out, sv.sessions[id])
	}
	return out
}

// Stats snapshots the server counters.
func (sv *Server) Stats() Stats {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	st := sv.stats
	st.Queued = len(sv.queue)
	st.Draining = sv.draining
	running := 0
	for _, s := range sv.sessions {
		s.mu.Lock()
		if s.state == StateRunning || s.state == StateRetrying {
			running++
		}
		s.mu.Unlock()
	}
	st.Running = running
	return st
}

// Draining reports whether a drain is in progress or complete.
func (sv *Server) Draining() bool {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.draining
}

// finish moves s to a terminal (or suspended) state and bumps the matching
// Stats counter in one critical section — the server lock is held across
// the session update, and Stats takes the same lock — so whoever observes
// the state (Done, /wait, the stream's end event) reads counters that
// already include it. set, when non-nil, fills in the session's result
// fields under the session lock.
func (sv *Server) finish(s *Session, state State, set func()) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	s.update(func() {
		s.state = state
		if set != nil {
			set()
		}
		switch state {
		case StateDone:
			sv.stats.Done++
			if s.retries > 0 {
				sv.stats.Recovered++
			}
		case StateFailed:
			sv.stats.Failed++
		case StateCanceled:
			sv.stats.Canceled++
		case StateSuspended:
			sv.stats.Suspended++
		}
	})
}

// Drain stops the server gracefully: new admissions are refused, every
// running session is stopped at its next run-loop head and suspended
// with its latest boundary checkpoint left in the spool, queued sessions
// are suspended untouched (their admission checkpoints already spooled),
// and the worker pool exits. Idempotent; blocks until the pool is idle.
// A subsequent boot with the same spool re-adopts everything suspended.
func (sv *Server) Drain() {
	sv.mu.Lock()
	if sv.draining {
		sv.mu.Unlock()
		sv.wg.Wait()
		return
	}
	sv.draining = true
	for _, s := range sv.sessions {
		s.interrupt()
	}
	close(sv.queue)
	sv.mu.Unlock()
	sv.wg.Wait()
}

// worker drains the admission queue until Drain closes it.
func (sv *Server) worker() {
	defer sv.wg.Done()
	for s := range sv.queue {
		sv.runSession(s)
	}
}

// runSession drives one session to a terminal (or suspended) state:
// attempts with retry-from-checkpoint and capped exponential backoff in
// between.
func (sv *Server) runSession(s *Session) {
	for sv.runAttempt(s) {
		backoff := sv.cfg.Backoff << uint(s.retries)
		if backoff > sv.cfg.BackoffCap || backoff <= 0 {
			backoff = sv.cfg.BackoffCap
		}
		sv.mu.Lock()
		sv.stats.Retries++
		s.update(func() {
			s.retries++
			s.state = StateRetrying
			s.backoff = backoff
		})
		sv.mu.Unlock()
		sv.cfg.logf("session %s: retry %d/%d in %v (%s)",
			s.ID, s.retries, sv.cfg.Retries, backoff, s.failClass)
		// An interrupted backoff re-enters runAttempt, whose interrupt
		// check cancels or suspends before the run starts.
		sv.sleep(s, backoff)
	}
}

// sleep waits out a backoff, returning early on cancel or drain.
func (sv *Server) sleep(s *Session, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	check := time.NewTicker(10 * time.Millisecond)
	defer check.Stop()
	for {
		select {
		case <-t.C:
			return
		case <-check.C:
			if s.isCanceled() || sv.Draining() {
				return
			}
		}
	}
}

// fail finalizes a permanent failure. A failed session is terminal and
// re-adopting it at next boot would retry a deterministic failure
// forever, so its checkpoint is dropped (before the state is published:
// whoever sees "failed" sees the spool already settled); the crash dump
// stays for forensics.
func (sv *Server) fail(s *Session, class guard.Class, err error) {
	sv.cfg.logf("session %s (%s): %s: %v", s.ID, s.Name, class, err)
	os.Remove(ckptPath(sv.cfg.Spool, s.ID))
	sv.finish(s, StateFailed, func() {
		s.failure = err.Error()
		s.failClass = class
	})
}

// cancel finalizes a canceled session: nothing of it is worth keeping.
func (sv *Server) cancel(s *Session) {
	removeSpooled(sv.cfg.Spool, s.ID)
	sv.finish(s, StateCanceled, nil)
}

// suspend parks a session for the drain: its latest boundary checkpoint
// is already spooled, so the state transition is all that is needed. The
// partial slice since that checkpoint is discarded; resuming replays it.
func (sv *Server) suspend(s *Session) {
	sv.finish(s, StateSuspended, nil)
	sv.cfg.logf("session %s: suspended (drain); checkpoint retained", s.ID)
}

// runAttempt executes one attempt: boot (or restore) a simulator, then
// drive the scenario in CheckpointEvery-cycle slices under one
// supervisor, spooling a checkpoint at every run-slice boundary. Its
// cycle budget clamps the last slice. It leaves the session terminal
// (or suspended) and returns false, or records a transient failure and
// returns true: retry from the latest checkpoint.
func (sv *Server) runAttempt(s *Session) (retry bool) {
	s.update(func() { s.attempts++ })
	// Resume state comes from the spool: either an admission checkpoint
	// (fresh start) or a boundary checkpoint with a machine snapshot.
	ck, err := readCheckpoint(ckptPath(sv.cfg.Spool, s.ID))
	if err != nil {
		// Unreadable mid-flight checkpoint: recover by running from the
		// start — same deterministic execution, just more replay.
		sv.cfg.logf("session %s: checkpoint unreadable (%v); restarting from scratch", s.ID, err)
		ck = &checkpoint{ID: s.ID}
	}

	sim, err := s.sc.NewSim(core.Options{})
	if err != nil {
		sv.fail(s, guard.ClassScenario, err)
		return false
	}
	closeSim := true
	defer func() {
		s.detach()
		if closeSim {
			sim.M.Close()
		}
	}()
	// One supervisor per attempt, built at cycle 0 before the checkpoint is
	// restored: the wall deadline is the attempt's own, and the cycle
	// budget counts from the session's first cycle, across every attempt.
	sup := guard.New(sim.M, guard.Options{
		Timeout:     s.wall,
		CycleBudget: s.cycleBudget,
		Grace:       sv.cfg.Grace,
		DumpPath:    crashPath(sv.cfg.Spool, s.ID),
	})

	run := s.sc.NewRun(sim)
	resumed := false
	if len(ck.Machine) > 0 {
		// Seek checks only the position, and a failed Restore leaves the
		// machine untouched, so a corrupt or incompatible checkpoint falls
		// back to a fresh start on the same simulator.
		resumed = run.Seek(ck.Pos) == nil &&
			sim.M.Restore(bytes.NewReader(ck.Machine)) == nil
		if resumed {
			sv.mu.Lock()
			sv.stats.Restores++
			sv.mu.Unlock()
		} else {
			sv.cfg.logf("session %s: checkpoint restore failed; restarting from scratch", s.ID)
			run = s.sc.NewRun(sim)
		}
	}

	// Chaos probes go only on a first attempt from a fresh start, so
	// retries converge and drained sessions resume clean.
	if s.retries == 0 && !resumed {
		if probe, desc := sv.cfg.Chaos.probe(s.seq, sim.M.NumNodes()); probe != nil {
			sim.M.SetFaultProbe(probe)
			sv.cfg.logf("session %s: chaos: injected %s", s.ID, desc)
		}
	}

	s.attach(sim)
	if sv.interrupted(s) {
		return false
	}
	result, err := run.Drive(sup, sv.cfg.CheckpointEvery, func(ran bool) error {
		if ran {
			// Between cycles at a deterministic slice boundary: publish
			// progress and spool the recovery checkpoint.
			s.noteProgress(run)
			if err := sv.spoolProgress(s, run, sim); err != nil {
				// Durability degraded, availability kept: the session runs
				// on; recovery just replays from the older checkpoint.
				sv.cfg.logf("session %s: checkpoint write failed: %v", s.ID, err)
			}
		}
		// guard.Do cleared any stop request raised before it began, so
		// these flags — not the stop flag — are the reliable interrupt
		// signal; RequestStop only shortens a slice.
		if s.isCanceled() || sv.Draining() {
			return machine.ErrStopped
		}
		return nil
	})
	// Interrupts end the run with machine.ErrStopped, mid-slice or here.
	if errors.Is(err, machine.ErrStopped) && sv.interrupted(s) {
		return false
	}
	if err != nil {
		return sv.attemptFailed(s, err, &closeSim)
	}
	// Completed. The digest of the final state is the bit-identity witness
	// chaos runs are compared with.
	removeSpooled(sv.cfg.Spool, s.ID)
	sv.finish(s, StateDone, func() {
		s.result = result
		s.phases = append(s.phases[:0], result.Phases...)
		s.checks = result.Checks
	})
	return false
}

// interrupted finalizes a pending cancel or drain of s, if there is one.
func (sv *Server) interrupted(s *Session) bool {
	if s.isCanceled() {
		sv.cancel(s)
		return true
	}
	if sv.Draining() {
		sv.suspend(s)
		return true
	}
	return false
}

// attemptFailed handles an attempt's error: permanent classes fail the
// session; transient ones are recorded and retried (true) until the
// retry cap. The machine of a failed attempt is always discarded (a
// crashed parallel pool is poisoned; a hung machine is abandoned
// un-Closed per the guard contract) — the next attempt restores the
// spooled checkpoint into a fresh simulator.
func (sv *Server) attemptFailed(s *Session, err error, closeSim *bool) (retry bool) {
	class := guard.Classify(err)
	if !class.Transient() {
		sv.fail(s, class, err)
		return false
	}
	if class == guard.ClassStallHang {
		*closeSim = false // wedged run goroutine still owns the machine
	}
	_, dump := guard.Forensics(err)
	s.update(func() {
		s.failure = err.Error()
		s.failClass = class
		if dump != "" {
			s.dumpPath = dump
		}
	})
	if s.retries >= sv.cfg.Retries {
		sv.fail(s, class,
			fmt.Errorf("%v (retries exhausted after %d attempts)", err, s.retries+1))
		return false
	}
	return true
}

// saveBufs recycles the buffers boundary checkpoints are encoded into, so
// a Save per slice does not grow a fresh buffer by doubling. No buffer
// outlives one spoolProgress call: a wedged attempt's run goroutine can
// still be inside one after its worker has moved on.
var saveBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// spoolProgress writes the boundary checkpoint for a running session.
func (sv *Server) spoolProgress(s *Session, run *core.ScenarioRun, sim *core.Sim) error {
	buf := saveBufs.Get().(*bytes.Buffer)
	defer saveBufs.Put(buf)
	buf.Reset()
	if err := sim.M.Save(buf); err != nil {
		return err
	}
	s.mu.Lock()
	retries := s.retries
	s.mu.Unlock()
	return writeCheckpoint(ckptPath(sv.cfg.Spool, s.ID), &checkpoint{
		ID: s.ID, Name: s.Name, Source: s.source,
		WallNanos: int64(s.wall), CycleBudget: s.cycleBudget,
		Retries: retries,
		Pos:     run.Position(),
		Machine: buf.Bytes(),
	})
}
