package dist

// The coordinator: owner of the authoritative machine (the "hub"), the
// clock, and the run loop. Its loop makes machine.Run's completion
// decisions by calling the same machine.QuietLoop — the loop-head
// quiescence check, the quiet-window count, the event-driven jump — but
// the chip phase of each cycle is farmed out to the shard workers, and
// the hub's chips never step. The hub network is the single source of
// truth for all traffic: worker outboxes are injected here in global node
// order (so sequence numbers match an in-process run exactly), deliveries
// are shipped to the owning shard as copies, and a shipped message is
// retired from the hub only when its shard confirms the chip consumed it
// — which keeps the hub's arrival queues equal to the real unconsumed set
// at every synchronization point, and therefore keeps Quiescent,
// NextEvent, and checkpoints exact.
//
// Supervision: every window the coordinator enforces a wall deadline and
// a heartbeat-silence bound on each shard, classifying failures in
// guard's taxonomy — crash (the worker reported a contained panic),
// stall-timeout (alive but wedged), lost (connection dead, process
// killed). Recovery rewinds the whole
// federation to the latest coordinated checkpoint — taken at run-loop
// heads, where the machine is exactly between cycles — respawns the
// workers, and replays; the replay is bit-identical to an undisturbed
// run because checkpoints capture the full hub state and the loop
// position (cycle, idle counter, at-step flag).

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/guard"
	"repro/internal/machine"
	"repro/internal/trace"
)

// ShardFailure is a supervised shard fault: the coordinator's retry loop
// catches it, recovers from the latest checkpoint, and replays. Class is
// one of guard.ClassCrash (the worker reported a contained panic, or
// answered out of protocol), guard.ClassStallTimeout (alive — heartbeating
// — but past the window deadline) or guard.ClassLost (the connection died
// or went silent).
type ShardFailure struct {
	Shard int
	Class guard.Class
	Cycle int64
	Err   error
}

func (f *ShardFailure) Error() string {
	return fmt.Sprintf("dist: shard %d %s at cycle %d: %v", f.Shard, f.Class, f.Cycle, f.Err)
}

func (f *ShardFailure) Unwrap() error { return f.Err }

// FailureClass is how guard.Classify reads the class off a shard failure.
func (f *ShardFailure) FailureClass() guard.Class { return f.Class }

// KillSpec is a supervised fault drill: at the first stepped cycle at or
// after Cycle, the coordinator kills shard Shard's worker outright
// (SIGKILL for process workers), exercising the lost-connection path.
type KillSpec struct {
	Shard int
	Cycle int64
}

// FailureRecord is one observed shard failure, kept for reporting.
type FailureRecord struct {
	Shard  int
	Class  guard.Class
	Cycle  int64
	Detail string
}

// Config parameterizes a Coordinator.
type Config struct {
	// Shards is the worker count; clamped to [1, nodes].
	Shards int
	// Launcher starts shard workers (ProcLauncher for real processes,
	// LocalLauncher for in-process tests). Required.
	Launcher Launcher
	// CheckpointEvery is the coordinated checkpoint cadence in cycles
	// (default 4096; <0 disables mid-phase checkpoints).
	CheckpointEvery int64
	// WindowTimeout is the wall deadline for one shard exchange
	// (default 30s). A shard that heartbeats but cannot answer within
	// it is classified as stalled.
	WindowTimeout time.Duration
	// HeartbeatEvery is the worker beacon cadence (default 250ms).
	HeartbeatEvery time.Duration
	// SilenceTimeout bounds the gap between any two frames from a shard
	// (default 3s); silence beyond it is a lost shard.
	SilenceTimeout time.Duration
	// MaxRecoveries caps checkpoint recoveries per coordinator
	// (default 8); the cap trips a terminal error instead of flapping.
	MaxRecoveries int
	// Chaos arms deterministic worker-side faults (tests and drills).
	Chaos []ChaosSpec
	// Kill arms coordinator-side worker kills (tests and drills).
	Kill []KillSpec
	// Trace receives the merged chip trace stream, in the serial
	// engines' order. Nil drops it.
	Trace *trace.Recorder
}

func (cfg *Config) setDefaults() {
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 4096
	}
	if cfg.WindowTimeout <= 0 {
		cfg.WindowTimeout = 30 * time.Second
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 250 * time.Millisecond
	}
	if cfg.SilenceTimeout <= 0 {
		cfg.SilenceTimeout = 3 * time.Second
	}
	if cfg.MaxRecoveries == 0 {
		cfg.MaxRecoveries = 8
	}
}

// checkpoint is a coordinated rewind point: the full hub state plus the
// run-loop position. atStep marks a checkpoint taken after the loop-head
// checks and before the step, so a resume skips the checks once.
type checkpoint struct {
	machine []byte
	cycle   int64
	loop    machine.QuietLoop
	atStep  bool
	valid   bool
}

// shardConn is the coordinator's view of one worker.
type shardConn struct {
	h         Handle
	shard     int
	lo, hi    int
	lastFrame time.Time
}

// Coordinator drives a sharded federation as a guard.LegRunner: Run and
// RunExact have the machine's contracts, so a guard.Supervisor built over
// it (guard.NewOver) clamps cycle budgets and drives core.ScenarioRun
// exactly as it does in process.
type Coordinator struct {
	cfg    Config
	m      *machine.Machine // the hub
	shards []*shardConn
	owner  []int // node -> shard index

	// Run-loop state: the leg's first cycle, the clock, the completion
	// policy machine.Run holds on its stack, and each shard's last report.
	phaseStart, cycle int64
	loop              machine.QuietLoop
	acts              []activity

	// Arrival mirroring: per (node, pri), how many of the hub's pending
	// arrivals have been shipped to the owning shard (never more than the
	// queue holds, so a drained queue's watermark is back at zero).
	shipped [][2]int

	ck           checkpoint
	lastCkpt     int64
	ckCount      int
	pendingTrace trace.Recorder

	recoveries int
	failures   []FailureRecord
	chaos      []ChaosSpec
	kill       []KillSpec
}

// New launches cfg.Shards workers for hub machine m and performs the
// init handshake with each. The hub's chips never step again; all
// simulation happens in the workers, reassembled into the hub at phase
// boundaries and checkpoints.
func New(m *machine.Machine, cfg Config) (*Coordinator, error) {
	cfg.setDefaults()
	if cfg.Launcher == nil {
		return nil, errors.New("dist: Config.Launcher is required")
	}
	nodes := m.NumNodes()
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Shards > nodes {
		cfg.Shards = nodes
	}
	co := &Coordinator{
		cfg:     cfg,
		m:       m,
		shards:  make([]*shardConn, cfg.Shards),
		owner:   make([]int, nodes),
		acts:    make([]activity, cfg.Shards),
		shipped: make([][2]int, nodes),
		chaos:   append([]ChaosSpec(nil), cfg.Chaos...),
		kill:    append([]KillSpec(nil), cfg.Kill...),
	}
	// Contiguous partition: nodes/shards each, the first nodes%shards
	// ranges one wider.
	base, rem := nodes/cfg.Shards, nodes%cfg.Shards
	lo := 0
	for i := 0; i < cfg.Shards; i++ {
		hi := lo + base
		if i < rem {
			hi++
		}
		co.shards[i] = &shardConn{shard: i, lo: lo, hi: hi}
		for n := lo; n < hi; n++ {
			co.owner[n] = i
		}
		lo = hi
	}
	for i := range co.shards {
		if err := co.spawn(i); err != nil {
			co.Close()
			return nil, err
		}
	}
	return co, nil
}

// Shards reports the worker count; Failures and Recoveries report the
// supervision history; Checkpoints counts coordinated checkpoints taken.
func (co *Coordinator) Shards() int               { return len(co.shards) }
func (co *Coordinator) Failures() []FailureRecord { return co.failures }
func (co *Coordinator) Recoveries() int           { return co.recoveries }
func (co *Coordinator) Checkpoints() int          { return co.ckCount }

// Close shuts the federation down: orderly cmdShutdown where possible,
// then handle teardown. Safe on a partially constructed coordinator.
func (co *Coordinator) Close() {
	for _, sc := range co.shards {
		if sc == nil || sc.h == nil {
			continue
		}
		if writeFrameDeadline(sc.h, cmdShutdown, nil, time.Second) == nil {
			sc.h.SetReadDeadline(time.Now().Add(time.Second))
			for {
				kind, _, err := readFrame(sc.h)
				if err != nil || kind == repOK {
					break
				}
			}
		}
		sc.h.Close()
	}
}

// spawn starts (or restarts) shard i's worker and runs the handshake.
func (co *Coordinator) spawn(i int) error {
	sc := co.shards[i]
	if sc.h != nil {
		sc.h.Kill()
		sc.h.Close()
		sc.h = nil
	}
	h, err := co.cfg.Launcher.Start(i)
	if err != nil {
		return fmt.Errorf("dist: start shard %d: %w", i, err)
	}
	sc.h = h
	sc.lastFrame = time.Now()
	kind, payload, ferr := co.read(sc)
	if ferr != nil {
		return fmt.Errorf("dist: shard %d hello: %v", i, ferr)
	}
	if kind != repHello {
		return fmt.Errorf("dist: shard %d: first frame %#x, want hello", i, kind)
	}
	v, err := decodeI64(payload)
	if err != nil || v != protoVersion {
		return fmt.Errorf("dist: shard %d speaks protocol %d, coordinator %d", i, v, protoVersion)
	}
	// Only the chaos armed for this shard's nodes ships in the init.
	var chaos []ChaosSpec
	for _, c := range co.chaos {
		if c.Node >= sc.lo && c.Node < sc.hi {
			chaos = append(chaos, c)
		}
	}
	spec := initSpec{
		Shard: i, Lo: sc.lo, Hi: sc.hi,
		HeartbeatMillis: co.cfg.HeartbeatEvery.Milliseconds(),
		Chaos:           chaos,
	}
	if _, err := co.callExpect(sc, cmdInit, encodeInit(&spec), repOK); err != nil {
		return fmt.Errorf("dist: shard %d init: %v", i, err)
	}
	return nil
}

// write sends one command to a shard under the window deadline.
func (co *Coordinator) write(sc *shardConn, kind byte, payload []byte) *ShardFailure {
	if err := writeFrameDeadline(sc.h, kind, payload, co.cfg.WindowTimeout); err != nil {
		return co.fail(sc, guard.ClassLost, fmt.Errorf("write: %w", err))
	}
	return nil
}

// read waits for a shard's next non-heartbeat frame under the window
// deadline and the heartbeat-silence bound, classifying every way the
// wait can end badly.
func (co *Coordinator) read(sc *shardConn) (byte, []byte, *ShardFailure) {
	windowEnd := time.Now().Add(co.cfg.WindowTimeout)
	for {
		deadline := windowEnd
		if sil := sc.lastFrame.Add(co.cfg.SilenceTimeout); sil.Before(deadline) {
			deadline = sil
		}
		sc.h.SetReadDeadline(deadline)
		kind, payload, err := readFrame(sc.h)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				if time.Now().Before(windowEnd) || time.Since(sc.lastFrame) > co.cfg.SilenceTimeout {
					return 0, nil, co.fail(sc, guard.ClassLost,
						fmt.Errorf("no frame for %v (heartbeat silence)", time.Since(sc.lastFrame).Round(time.Millisecond)))
				}
				return 0, nil, co.fail(sc, guard.ClassStallTimeout,
					fmt.Errorf("alive but no reply within the %v window", co.cfg.WindowTimeout))
			}
			return 0, nil, co.fail(sc, guard.ClassLost, err)
		}
		sc.lastFrame = time.Now()
		switch kind {
		case repHeartbeat:
			continue
		case repErr:
			msg, _ := decodeString(payload)
			return 0, nil, co.fail(sc, guard.ClassCrash, errors.New(msg))
		default:
			return kind, payload, nil
		}
	}
}

func (co *Coordinator) fail(sc *shardConn, class guard.Class, err error) *ShardFailure {
	return &ShardFailure{Shard: sc.shard, Class: class, Cycle: co.cycle, Err: err}
}

// callExpect is a write + read that demands a specific reply kind.
func (co *Coordinator) callExpect(sc *shardConn, kind byte, payload []byte, want byte) ([]byte, *ShardFailure) {
	if f := co.write(sc, kind, payload); f != nil {
		return nil, f
	}
	got, reply, f := co.read(sc)
	if f != nil {
		return nil, f
	}
	if got != want {
		return nil, co.fail(sc, guard.ClassCrash, fmt.Errorf("reply %#x, want %#x", got, want))
	}
	return reply, nil
}

// Run runs one machine.Run leg across the federation. Semantics match
// Machine.Run: the cycles executed (excluding the quiet window) and an
// error on cycle-limit expiry or user faults.
func (co *Coordinator) Run(maxCycles int64) (int64, error) {
	return co.supervise(func(resume bool) (int64, error) { return co.runLeg(maxCycles, resume) })
}

// RunExact advances the federation exactly n cycles with no completion
// detection and no fast-forward — the distributed twin of
// Machine.RunExact, the budget clamp's cycle-by-cycle tail.
func (co *Coordinator) RunExact(n int64) (int64, error) {
	return co.supervise(func(bool) (int64, error) {
		if f := co.beginRun(); f != nil {
			return 0, f
		}
		for co.cycle < co.phaseStart+n {
			if f := co.stepCycle(co.cycle); f != nil {
				return co.cycle - co.phaseStart, f
			}
		}
		return n, nil
	})
}

// supervise is the federation's one recover-and-resume loop. An attempt
// seeds the workers with the hub's state, runs leg, and reassembles the hub; a
// *ShardFailure anywhere in it rewinds to the latest checkpoint
// (recover) and re-attempts with resume=true, until the leg completes or
// the recovery cap trips.
func (co *Coordinator) supervise(leg func(resume bool) (int64, error)) (int64, error) {
	co.phaseStart, co.cycle = co.m.Cycle, co.m.Cycle
	co.ck = checkpoint{}
	co.pendingTrace.Reset()
	for resume := false; ; resume = true {
		n, err := co.attempt(leg, resume)
		sf, failed := err.(*ShardFailure)
		if !failed {
			return n, err
		}
		if rerr := co.recover(sf); rerr != nil {
			return 0, rerr
		}
	}
}

// attempt is one try at a leg. Shard failures come back bare — never
// wrapped — which is what lets supervise tell a recoverable failure from
// a terminal error that merely wraps its cause.
func (co *Coordinator) attempt(leg func(resume bool) (int64, error), resume bool) (int64, error) {
	// One hub Save per leg: the entry checkpoint is the seed snapshot, and a
	// resume seeds with the checkpoint recover just restored the hub from.
	if !resume {
		if err := co.takeCheckpoint(false); err != nil {
			return 0, err
		}
	}
	if err := co.seedAll(co.ck.machine); err != nil {
		return 0, err
	}
	n, err := leg(resume)
	if _, failed := err.(*ShardFailure); failed {
		return n, err
	}
	// Leave the hub authoritative at the leg's end, whatever the leg's
	// outcome, and flush the trace tail.
	if f := co.syncHub(); f != nil {
		return n, f
	}
	co.commitTrace()
	return n, err
}

// seedAll ships snapshot, the hub's current state, to every worker and
// resets the arrival mirror (a seeded worker's mailbox is empty). Seed
// failures respawn the one affected worker and retry in place — the hub
// was not touched, so there is nothing to rewind; exhaustion is terminal
// (it wraps the last failure, so guard.Classify still names the cause).
func (co *Coordinator) seedAll(snapshot []byte) error {
	for i := range co.shards {
		for {
			_, f := co.callExpect(co.shards[i], cmdSeed, snapshot, repOK)
			if f == nil {
				break
			}
			co.noteFailure(f)
			if co.recoveries >= co.cfg.MaxRecoveries {
				return fmt.Errorf("dist: recovery limit %d exhausted seeding: %w", co.cfg.MaxRecoveries, f)
			}
			co.recoveries++
			if err := co.spawn(i); err != nil {
				return err
			}
		}
	}
	clear(co.shipped)
	return nil
}

// beginRun is the run-loop entry across the federation: every worker
// wakes its chips (machine.Run's WakeAll) and reports activity.
func (co *Coordinator) beginRun() *ShardFailure {
	for i, sc := range co.shards {
		payload, f := co.callExpect(sc, cmdBeginRun, nil, repActivity)
		if f != nil {
			return f
		}
		a, err := decodeActivityFrame(payload)
		if err != nil {
			return co.fail(sc, guard.ClassCrash, err)
		}
		co.acts[i] = a
	}
	return nil
}

// totals sums the shards' last reports into the machine-wide activity
// the quiet loop reads.
func (co *Coordinator) totals() machine.Activity {
	var t machine.Activity
	for i := range co.acts {
		t.Running += co.acts[i].Running
		t.Busy += co.acts[i].Busy
		t.Issued += co.acts[i].Issued
	}
	return t
}

// faultErr mirrors Machine.FaultError: the first fault in node-scan
// order (shard order is node order), nil if none.
func (co *Coordinator) faultErr() error {
	for i := range co.acts {
		if co.acts[i].Fault != "" {
			return errors.New(co.acts[i].Fault)
		}
	}
	return nil
}

// runLeg is machine.Run's loop with the chip phase distributed: the same
// QuietLoop calls at the same points, plus coordinated checkpoints at the
// loop heads.
func (co *Coordinator) runLeg(maxCycles int64, resume bool) (int64, error) {
	if f := co.beginRun(); f != nil {
		return 0, f
	}
	// A checkpoint taken at a loop head already performed the head's
	// check, and recover restored the loop as it stood after it; a resume
	// from one goes straight to the step. Any other start is the leg's.
	atStep := resume && co.ck.atStep
	act := co.totals()
	if !atStep {
		co.loop = machine.NewQuietLoop(co.phaseStart, maxCycles, act)
	}
	for co.cycle < co.loop.Bound() {
		if !atStep {
			if co.loop.Head(act, co.m.Net) {
				return co.loop.Ran(co.cycle), co.faultErr()
			}
			if co.cfg.CheckpointEvery > 0 && co.cycle-co.lastCkpt >= co.cfg.CheckpointEvery {
				if err := co.takeCheckpoint(true); err != nil {
					return co.cycle - co.phaseStart, err
				}
			}
		}
		atStep = false
		if f := co.stepCycle(co.cycle); f != nil {
			return co.cycle - co.phaseStart, f
		}
		// The jump to the next event; workers materialize the skipped
		// window lazily (cmdSkip) before their next step or pull.
		act = co.totals()
		next := co.m.Net.NextEvent(co.cycle)
		for i := range co.acts {
			next = min(next, co.acts[i].Next)
		}
		co.cycle = co.loop.Jump(co.cycle, next, act, co.m.Net)
	}
	if err := co.loop.Expired(act); err != nil {
		return co.cycle - co.phaseStart, err
	}
	return co.cycle - co.phaseStart, co.faultErr()
}

// stepCycle advances the federation through machine cycle t: fire due
// kill drills, ship unshipped hub arrivals to their owners, step every
// shard, then reassemble — inject outboxes in global node order, retire
// confirmed consumptions, buffer traces, and step the hub network.
func (co *Coordinator) stepCycle(t int64) *ShardFailure {
	for i := 0; i < len(co.kill); {
		k := co.kill[i]
		if k.Cycle <= t && k.Shard >= 0 && k.Shard < len(co.shards) {
			co.shards[k.Shard].h.Kill()
			co.kill = append(co.kill[:i], co.kill[i+1:]...)
			continue
		}
		i++
	}

	// Ship what the hub holds beyond each owner's shipped watermark.
	cmds := make([]stepCmd, len(co.shards))
	for i := range cmds {
		cmds[i].Cycle = t
	}
	for _, n := range co.m.Net.ArrivalNodes() {
		cmd := &cmds[co.owner[n]]
		for pri := 0; pri < 2; pri++ {
			q := co.m.Net.ArrivalsAt(n, pri)
			for _, msg := range q[co.shipped[n][pri]:] {
				cmd.Deliveries = append(cmd.Deliveries, delivery{Node: n, Pri: pri, Msg: msg})
			}
			co.shipped[n][pri] = len(q)
		}
	}

	// Lockstep exchange: write every command, then read every reply, in
	// shard order.
	for i, sc := range co.shards {
		if f := co.write(sc, cmdStep, encodeStep(co.m.Net, &cmds[i])); f != nil {
			return f
		}
	}
	reps := make([]*stepReply, len(co.shards))
	for i, sc := range co.shards {
		kind, payload, f := co.read(sc)
		if f != nil {
			return f
		}
		if kind != repStep {
			return co.fail(sc, guard.ClassCrash, fmt.Errorf("step reply %#x", kind))
		}
		rep, err := decodeStepReply(co.m.Net, payload)
		if err != nil {
			return co.fail(sc, guard.ClassCrash, err)
		}
		reps[i] = rep
	}

	// Reassembly in shard order — which is global node order, so the
	// hub assigns the same message sequence numbers as an in-process
	// drain phase.
	for i, sc := range co.shards {
		rep := reps[i]
		for _, msg := range rep.Msgs {
			co.m.Net.Inject(t, msg)
		}
		for _, c := range rep.Consumed {
			if c.Node < sc.lo || c.Node >= sc.hi || c.Pri < 0 || c.Pri > 1 ||
				c.N <= 0 || c.N > co.shipped[c.Node][c.Pri] {
				return co.fail(sc, guard.ClassCrash,
					fmt.Errorf("bogus consumption: node %d pri %d n %d", c.Node, c.Pri, c.N))
			}
			co.m.Net.DropArrivals(c.Node, c.Pri, c.N)
			co.shipped[c.Node][c.Pri] -= c.N
		}
		co.pendingTrace.Drain(&rep.Trace)
		co.acts[i] = rep.Act
	}
	if co.m.Net.NeedsStep(t) {
		co.m.Net.Step(t)
	}
	co.cycle = t + 1
	return nil
}

// takeCheckpoint records a coordinated rewind point. atStep checkpoints
// sit at a run-loop head, so the workers' chip state must be pulled back
// into the hub first; the entry checkpoint needs no pull because no
// worker has run yet — its bytes go on to seed them.
func (co *Coordinator) takeCheckpoint(atStep bool) error {
	if atStep {
		if f := co.syncHub(); f != nil {
			return f
		}
	}
	var buf bytes.Buffer
	if err := co.m.Save(&buf); err != nil {
		return fmt.Errorf("dist: checkpoint: %w", err)
	}
	co.ck = checkpoint{machine: buf.Bytes(), cycle: co.cycle, loop: co.loop, atStep: atStep, valid: true}
	co.lastCkpt = co.cycle
	co.ckCount++
	co.commitTrace()
	return nil
}

// commitTrace flushes the buffered window of trace events to the sink.
// Events buffer between checkpoints so a rewind can discard exactly the
// events of the replayed window — each is delivered exactly once.
func (co *Coordinator) commitTrace() {
	if co.cfg.Trace != nil {
		co.cfg.Trace.Drain(&co.pendingTrace)
	}
	co.pendingTrace.Reset()
}

// syncHub reassembles the full machine in the hub: every worker
// materializes deferred skips up to the coordinator clock and ships its
// chip range, which the hub installs (Machine.AdoptShard).
func (co *Coordinator) syncHub() *ShardFailure {
	for _, sc := range co.shards {
		if _, f := co.callExpect(sc, cmdSkip, encodeI64(co.cycle), repOK); f != nil {
			return f
		}
	}
	for _, sc := range co.shards {
		payload, f := co.callExpect(sc, cmdPull, nil, repFrame)
		if f != nil {
			return f
		}
		cyc, err := co.m.AdoptShard(bytes.NewReader(payload), sc.lo, sc.hi)
		if err != nil {
			return co.fail(sc, guard.ClassCrash, err)
		}
		if cyc != co.cycle {
			return co.fail(sc, guard.ClassCrash, fmt.Errorf("frame at cycle %d, coordinator at %d", cyc, co.cycle))
		}
	}
	co.m.Cycle = co.cycle
	return nil
}

func (co *Coordinator) noteFailure(f *ShardFailure) {
	co.failures = append(co.failures, FailureRecord{
		Shard: f.Shard, Class: f.Class, Cycle: f.Cycle, Detail: f.Err.Error(),
	})
}

// recover rewinds the federation to the latest checkpoint after a shard
// failure: every worker is respawned (survivors may hold half-exchanged
// protocol state), the hub restores the checkpointed machine, the
// buffered trace window is discarded, and fired fault drills are
// disarmed so the replay runs clean. The caller then re-attempts the leg
// with resume=true, which reseeds the workers with the same checkpoint.
func (co *Coordinator) recover(sf *ShardFailure) error {
	co.noteFailure(sf)
	if co.recoveries >= co.cfg.MaxRecoveries {
		return fmt.Errorf("dist: recovery limit %d exhausted: %w", co.cfg.MaxRecoveries, sf)
	}
	co.recoveries++
	if !co.ck.valid {
		return fmt.Errorf("dist: no checkpoint to recover from: %w", sf)
	}
	keepChaos := co.chaos[:0]
	for _, c := range co.chaos {
		if c.Cycle > co.cycle {
			keepChaos = append(keepChaos, c)
		}
	}
	co.chaos = keepChaos
	keepKill := co.kill[:0]
	for _, k := range co.kill {
		if k.Cycle > co.cycle {
			keepKill = append(keepKill, k)
		}
	}
	co.kill = keepKill
	for i := range co.shards {
		if err := co.spawn(i); err != nil {
			return err
		}
	}
	if err := co.m.Restore(bytes.NewReader(co.ck.machine)); err != nil {
		return fmt.Errorf("dist: restore checkpoint: %w", err)
	}
	co.cycle, co.loop = co.ck.cycle, co.ck.loop
	co.lastCkpt = co.ck.cycle
	co.pendingTrace.Reset()
	return nil
}
