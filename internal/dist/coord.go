package dist

// The coordinator: owner of the authoritative machine (the "hub"), the
// clock, and the run loop. Its loop makes Machine.RunLoop's completion
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
// One exchange steps a window of W = noc.Network.Lookahead() cycles (3
// by default), clipped so it never contains a loop head that could end
// the leg or take a checkpoint, nor crosses the leg's bound or the cycle
// the caller stops at. Nothing injected inside a window moves before its
// last cycle, so the coordinator steps the hub network through every
// cycle but the last before the exchange, shipping each delivery tagged
// with its visibility cycle; the workers' per-cycle replies are then
// replayed here cycle by cycle — inject, retire, trace, QuietLoop.Head —
// and the hub network steps the window's last cycle (DESIGN.md, "The
// distributed engine").
//
// Supervision: a worker answers each command with exactly one reply, so
// the coordinator bounds every read by one wall deadline and classifies
// failures in guard's taxonomy — crash (the worker reported a contained
// panic), stall-timeout (no reply within the window deadline: wedged or
// frozen), lost (connection dead, process killed). Recovery rewinds the
// whole federation to the latest coordinated checkpoint — taken at
// run-loop heads, where the machine is exactly between cycles — respawns
// the workers, and replays; the replay is bit-identical to an undisturbed
// run because a checkpoint is the full hub state and the loop position
// (cycle, idle counter, at-step flag). The hub's chips change only when a
// pull installs every shard's range at once, which happens only at a
// checkpoint or a leg's end, so a checkpoint holds just a clone of the
// hub network beside them.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/guard"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/trace"
)

// ShardFailure is a supervised shard fault: the coordinator's retry loop
// catches it, recovers from the latest checkpoint, and replays. Class is
// one of guard.ClassCrash (the worker reported a contained panic, or
// answered out of protocol), guard.ClassStallTimeout (no reply within the
// window deadline) or guard.ClassLost (the connection died).
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

// KillSpec is a supervised fault drill: at the first step exchange whose
// window reaches Cycle, the coordinator kills shard Shard's worker
// outright (SIGKILL for process workers), exercising the lost-connection
// path.
type KillSpec struct {
	Shard int
	Cycle int64
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
	// WindowTimeout is the wall deadline for one shard exchange — a
	// whole step window, not one cycle (default 30s), and the only
	// liveness bound: a shard that has not answered within it is
	// classified as stalled.
	WindowTimeout time.Duration
	// MaxRecoveries caps checkpoint recoveries per coordinator
	// (default 8; <0 allows none); the cap trips a terminal error
	// instead of flapping.
	MaxRecoveries int
	// Chaos arms worker-side faults and Kill worker kills (tests and
	// drills); New rejects one that can never fire (ErrDeadDrill).
	Chaos []ChaosSpec
	Kill  []KillSpec
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
	if cfg.MaxRecoveries == 0 {
		cfg.MaxRecoveries = 8
	}
}

// checkpoint is a coordinated rewind point (none while net is nil): a
// clone of the hub network — the hub's chips are the checkpoint's until
// the next pull installs new ones — plus the run-loop position; one taken
// at a loop head holds its loop (QuietLoop.Hold), so a resume skips that
// head's check once.
type checkpoint struct {
	net   *noc.Network
	cycle int64
	loop  machine.QuietLoop
}

// shardConn is the coordinator's view of one worker, with the buffers
// its frames are read into and its step commands encoded into.
type shardConn struct {
	h       Handle
	shard   int
	lo, hi  int
	rbuf    []byte
	stepBuf bytes.Buffer
}

// Coordinator drives a sharded federation as a guard.LegRunner: RunLoop
// has the machine's contract, so a guard.Supervisor built over it
// (guard.NewOver) clamps cycle budgets and drives core.ScenarioRun
// exactly as it does in process.
type Coordinator struct {
	cfg    Config
	m      *machine.Machine // the hub
	shards []*shardConn
	owner  []int // node -> shard index

	// Run-loop state: the clock, the caller's completion loop while a
	// RunLoop call runs it, and each shard's last report.
	cycle int64
	loop  *machine.QuietLoop
	acts  []activity

	// Arrival mirroring: per (node, pri), how many of the hub's pending
	// arrivals have been shipped to the owning shard (never more than the
	// queue holds, so a drained queue's watermark is back at zero).
	shipped [][2]int

	// Window buffers, reused every exchange: each shard's command and
	// reply, each shard's failure in the latest exchange and its decoded
	// pull, and the last cycle the latest step exchange reached.
	cmds   []stepCmd
	reps   []stepReply
	fails  []*ShardFailure
	pulled []*machine.ShardFrame
	reach  int64

	ck           checkpoint
	seedBuf      bytes.Buffer // the seed being sent
	lastCkpt     int64
	ckCount      int
	pendingTrace trace.Recorder

	recoveries int
	failures   []ShardFailure
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
	if err := cfg.checkDrills(nodes); err != nil {
		return nil, err
	}
	co := &Coordinator{
		cfg:     cfg,
		m:       m,
		shards:  make([]*shardConn, cfg.Shards),
		owner:   make([]int, nodes),
		acts:    make([]activity, cfg.Shards),
		shipped: make([][2]int, nodes),
		cmds:    make([]stepCmd, cfg.Shards),
		reps:    make([]stepReply, cfg.Shards),
		fails:   make([]*ShardFailure, cfg.Shards),
		pulled:  make([]*machine.ShardFrame, cfg.Shards),
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

// ErrDeadDrill marks a drill that can never fire (a node outside the mesh,
// a shard outside the clamped federation, an unknown kind).
var ErrDeadDrill = errors.New("can never fire")

func (cfg *Config) checkDrills(nodes int) error {
	for _, c := range cfg.Chaos {
		if c.Node < 0 || c.Node >= nodes || c.Kind != "panic" && c.Kind != "hang" {
			return fmt.Errorf("dist: %s drill %d@%d %w: the mesh has %d nodes, the kinds are panic and hang", c.Kind, c.Node, c.Cycle, ErrDeadDrill, nodes)
		}
	}
	for _, k := range cfg.Kill {
		if k.Shard < 0 || k.Shard >= cfg.Shards {
			return fmt.Errorf("dist: kill drill %d@%d %w: the run has %d shard(s)", k.Shard, k.Cycle, ErrDeadDrill, cfg.Shards)
		}
	}
	return nil
}

// Shards reports the worker count; Failures and Recoveries report the
// supervision history; Checkpoints counts coordinated checkpoints taken.
func (co *Coordinator) Shards() int              { return len(co.shards) }
func (co *Coordinator) Failures() []ShardFailure { return co.failures }
func (co *Coordinator) Recoveries() int          { return co.recoveries }
func (co *Coordinator) Checkpoints() int         { return co.ckCount }

// Close shuts the federation down by hanging up on every worker (a
// worker's ServeConn returns on EOF). Safe on a partially constructed
// coordinator.
func (co *Coordinator) Close() {
	for _, sc := range co.shards {
		if sc != nil && sc.h != nil {
			sc.h.Close()
		}
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
	// Every worker arms every drill: a drill is a probe on its node, and
	// only the node's owner steps it.
	spec := initSpec{Shard: i, Lo: sc.lo, Hi: sc.hi, Chaos: co.chaos}
	if _, err := co.callExpect(sc, cmdInit, encodeInit(&spec), repOK); err != nil {
		return fmt.Errorf("dist: shard %d init: %v", i, err)
	}
	return nil
}

// write sends one command to a shard under the window deadline (a wedged
// worker eventually fills the socket buffer; without a deadline the
// coordinator would wedge with it).
func (co *Coordinator) write(sc *shardConn, kind byte, payload []byte) *ShardFailure {
	err := sc.h.SetWriteDeadline(time.Now().Add(co.cfg.WindowTimeout))
	if err == nil {
		err = writeFrame(sc.h, kind, payload)
	}
	if err != nil {
		return co.fail(sc, guard.ClassLost, fmt.Errorf("write: %w", err))
	}
	return nil
}

// read waits for a shard's reply under the window deadline, its one
// bound: a missed deadline is a stall, any other read error a lost
// connection, a repErr frame a crash.
func (co *Coordinator) read(sc *shardConn) (byte, []byte, *ShardFailure) {
	if err := sc.h.SetReadDeadline(time.Now().Add(co.cfg.WindowTimeout)); err != nil {
		return 0, nil, co.fail(sc, guard.ClassLost, err)
	}
	kind, payload, err := readFrame(sc.h, &sc.rbuf)
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded):
		return 0, nil, co.fail(sc, guard.ClassStallTimeout, fmt.Errorf("no reply within the %v window", co.cfg.WindowTimeout))
	case err != nil:
		return 0, nil, co.fail(sc, guard.ClassLost, err)
	case kind == repErr:
		msg, _ := decodeString(payload)
		return 0, nil, co.fail(sc, guard.ClassCrash, errors.New(msg))
	}
	return kind, payload, nil
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

// exchange is the one shape of a federation-wide command: write every
// shard its command, then read every reply, in shard order, so the
// workers serve it concurrently. Each reply must be of kind want and is
// handed to reply (when not nil). co.fails[i] is shard i's failure, nil if
// it answered; the first in shard order is returned. Every shard whose
// command went out has its reply read, so a failure leaves no survivor
// with an unread reply on the wire.
func (co *Coordinator) exchange(kind, want byte, payload func(i int) []byte, reply func(i int, p []byte) error) *ShardFailure {
	for i, sc := range co.shards {
		co.fails[i] = co.write(sc, kind, payload(i))
	}
	for i, sc := range co.shards {
		if co.fails[i] != nil {
			continue
		}
		got, p, f := co.read(sc)
		if f == nil && got != want {
			f = co.fail(sc, guard.ClassCrash, fmt.Errorf("reply %#x to command %#x, want %#x", got, kind, want))
		}
		if f == nil && reply != nil {
			if err := reply(i, p); err != nil {
				f = co.fail(sc, guard.ClassCrash, err)
			}
		}
		co.fails[i] = f
	}
	for _, f := range co.fails {
		if f != nil {
			return f
		}
	}
	return nil
}

// RunLoop has Machine.RunLoop's contract across the federation, and is
// its one recover-and-resume loop: an attempt seeds each worker with its
// range of the hub, runs the leg, and reassembles the hub; a *ShardFailure in
// it rewinds to the latest checkpoint (recover) and re-attempts, until
// the call returns or the recovery cap trips.
func (co *Coordinator) RunLoop(loop *machine.QuietLoop, until int64) (bool, error) {
	co.loop, co.cycle = loop, co.m.Cycle
	co.ck = checkpoint{}
	co.pendingTrace.Reset()
	for resume := false; ; resume = true {
		ended, err := co.attempt(until, resume)
		sf, failed := err.(*ShardFailure)
		if !failed {
			return ended, err
		}
		if rerr := co.recover(sf); rerr != nil {
			return false, rerr
		}
	}
}

// stopped answers the hub's stop request (a supervisor's deadline) at a
// window head with the error Machine.Run returns at its loop head; the
// leg's attempt then leaves the hub synced at the cycle it stopped on.
func (co *Coordinator) stopped() error {
	if !co.m.StopRequested() {
		return nil
	}
	return fmt.Errorf("dist: run stopped at cycle %d: %w", co.cycle, machine.ErrStopped)
}

// attempt is one try at a leg. Shard failures come back bare — never
// wrapped — which is what lets RunLoop tell a recoverable failure from a
// terminal error that merely wraps its cause.
func (co *Coordinator) attempt(until int64, resume bool) (bool, error) {
	// A resume seeds from the hub recover just rewound to the checkpoint.
	if !resume {
		co.takeCheckpoint()
	}
	if err := co.seedAll(); err != nil {
		return false, err
	}
	ended, err := co.runLeg(until)
	if _, failed := err.(*ShardFailure); failed {
		return ended, err
	}
	// Leave the hub authoritative at the leg's end, whatever the leg's
	// outcome, and flush the trace tail.
	if f := co.syncHub(); f != nil {
		return ended, f
	}
	co.commitTrace()
	return ended, err
}

// seedAll ships every worker its range of the hub and resets the arrival
// mirror (a seeded worker's mailbox is empty). A shard that fails its seed
// is respawned and retried in place — the hub was not touched, so there
// is nothing to rewind; exhaustion is terminal.
func (co *Coordinator) seedAll() error {
	co.exchange(cmdSeed, repOK, co.seed, nil)
	for i, f := range co.fails {
		for f != nil {
			if err := co.spend(f); err != nil {
				return err
			}
			if err := co.spawn(i); err != nil {
				return err
			}
			_, f = co.callExpect(co.shards[i], cmdSeed, co.seed(i), repOK)
		}
	}
	clear(co.shipped)
	return nil
}

// seed encodes shard i's seed, the shard frame of its range, into the
// seed buffer: valid until the next seed. (A bytes.Buffer sink never
// fails, and the range is the machine's.)
func (co *Coordinator) seed(i int) []byte {
	co.seedBuf.Reset()
	sc := co.shards[i]
	co.m.EncodeShard(&co.seedBuf, sc.lo, sc.hi)
	return co.seedBuf.Bytes()
}

// beginRun is the run-loop entry across the federation: every worker
// wakes its chips (Machine.RunLoop's WakeAll) and reports activity.
func (co *Coordinator) beginRun() *ShardFailure {
	return co.exchange(cmdBeginRun, repActivity, func(int) []byte { return nil }, func(i int, p []byte) error {
		return unframe(p, co.acts[i].state)
	})
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

// runLeg is Machine.RunLoop's loop with the chip phase distributed: the
// same QuietLoop calls at the same points, plus coordinated checkpoints at
// the loop heads.
func (co *Coordinator) runLeg(until int64) (bool, error) {
	if f := co.beginRun(); f != nil {
		return false, f
	}
	loop := co.loop
	act := co.totals()
	loop.Begin(co.cycle, act)
	for co.cycle < loop.Bound() {
		if err := co.stopped(); err != nil {
			return false, err
		}
		if loop.Head(act, co.m.Net) {
			return true, co.faultErr()
		}
		if co.cycle >= until {
			loop.Hold()
			return false, nil
		}
		if co.cfg.CheckpointEvery > 0 && co.cycle-co.lastCkpt >= co.cfg.CheckpointEvery {
			if f := co.syncHub(); f != nil {
				return false, f
			}
			co.takeCheckpoint()
			co.ck.loop.Hold() // its head's check is made
		}
		end := min(loop.Horizon(co.cycle), until)
		if co.cfg.CheckpointEvery > 0 {
			end = min(end, co.lastCkpt+co.cfg.CheckpointEvery)
		}
		if f := co.stepWindow(end); f != nil {
			return false, f
		}
		// The jump to the next event; workers materialize the skipped
		// stretch lazily, before their next step or pull.
		act = co.totals()
		next := min(co.m.Net.NextEvent(co.cycle), until)
		for i := range co.acts {
			next = min(next, co.acts[i].Next)
		}
		co.cycle = loop.Jump(co.cycle, next, act, co.m.Net)
	}
	if err := loop.Expired(act); err != nil {
		return true, err
	}
	return true, co.faultErr()
}

// stepWindow advances the federation through the cycles t = co.cycle …
// end-1, at most Lookahead() of them, in one exchange: fire the kill
// drills the window reaches, step the hub network through t … end-2 and
// ship every delivery the window's chips will see, step every shard
// through the window, replay it cycle by cycle — inject outboxes in
// global node order, retire confirmed consumptions, buffer traces, make
// the loop's Head call at every loop head inside the window — and step
// the hub network through end-1. The caller clips end so that none of
// those calls can end the leg. The order is exact: nothing injected at or
// after t moves before end-1, newer traffic never moves an older
// delivery, Step reads no arrival queue, and a Step only moves flights
// into queues, so every Head sees the Quiescent a cycle-by-cycle replay
// would show it.
func (co *Coordinator) stepWindow(end int64) *ShardFailure {
	t := co.cycle
	end = min(end, t+co.m.Net.Lookahead())
	co.reach = end - 1
	for i := 0; i < len(co.kill); {
		k := co.kill[i]
		if k.Cycle < end {
			co.shards[k.Shard].h.Kill()
			co.kill = append(co.kill[:i], co.kill[i+1:]...)
			continue
		}
		i++
	}

	for i := range co.cmds {
		co.cmds[i] = stepCmd{Cycle: t, Width: int(end - t), Deliveries: co.cmds[i].Deliveries[:0]}
	}
	co.ship(t)
	for s := t; s < end-1; s++ {
		if co.m.Net.NeedsStep(s) {
			co.m.Net.Step(s)
			co.ship(s + 1)
		}
	}

	f := co.exchange(cmdStep, repStep,
		func(i int) []byte { return encodeStep(&co.shards[i].stepBuf, co.m.Net, &co.cmds[i]) },
		func(i int, p []byte) error {
			if err := decodeStepReply(co.m.Net, p, &co.reps[i]); err != nil {
				return err
			}
			if len(co.reps[i].Cycles) != int(end-t) {
				return fmt.Errorf("step reply covers %d cycles, window %d", len(co.reps[i].Cycles), end-t)
			}
			return nil
		})
	if f != nil {
		return f
	}

	// Replay in shard order — which is global node order, so the hub
	// assigns the same message sequence numbers as an in-process drain
	// phase. A cycle's section may retire, from an owned node's queue,
	// only messages shipped to it and visible at that cycle: delivered by
	// a Step before it.
	for s := t; s < end; s++ {
		for i, sc := range co.shards {
			out := &co.reps[i].Cycles[s-t]
			for _, msg := range out.Msgs {
				co.m.Net.Inject(s, msg)
			}
			for _, c := range out.Consumed {
				if c.Node < sc.lo || c.Node >= sc.hi || c.Pri < 0 || c.Pri > 1 ||
					c.N <= 0 || c.N > co.shipped[c.Node][c.Pri] ||
					co.m.Net.ArrivalsAt(c.Node, c.Pri)[c.N-1].DeliveredAt >= s {
					return co.fail(sc, guard.ClassCrash,
						fmt.Errorf("bogus consumption: node %d pri %d n %d at cycle %d", c.Node, c.Pri, c.N, s))
				}
				co.m.Net.DropArrivals(c.Node, c.Pri, c.N)
				co.shipped[c.Node][c.Pri] -= c.N
			}
			co.pendingTrace.Drain(&out.Trace)
			co.acts[i] = out.Act
		}
		if s+1 < end {
			co.loop.Head(co.totals(), co.m.Net) // false: end is inside the loop's Horizon
		}
	}
	if co.m.Net.NeedsStep(end - 1) {
		co.m.Net.Step(end - 1)
	}
	co.cycle = end
	return nil
}

// ship appends to the owners' commands every message the hub holds beyond
// its owner's shipped watermark, tagged visible from cycle at, and moves
// the watermarks over them.
func (co *Coordinator) ship(at int64) {
	for _, n := range co.m.Net.ArrivalNodes() {
		cmd := &co.cmds[co.owner[n]]
		for pri := 0; pri < 2; pri++ {
			q := co.m.Net.ArrivalsAt(n, pri)
			for _, msg := range q[co.shipped[n][pri]:] {
				cmd.Deliveries = append(cmd.Deliveries, delivery{At: at, Node: n, Pri: pri, Msg: msg})
			}
			co.shipped[n][pri] = len(q)
		}
	}
}

// takeCheckpoint records a coordinated rewind point at the current clock:
// a clone of the hub network and the loop position. The hub's chips must
// be the federation's — at a leg's entry, before any worker runs, or
// right after a pull.
func (co *Coordinator) takeCheckpoint() {
	co.ck = checkpoint{net: co.m.Net.Clone(), cycle: co.cycle, loop: *co.loop}
	co.lastCkpt = co.cycle
	co.ckCount++
	co.commitTrace()
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

// syncHub reassembles the full machine in the hub: every worker catches
// up to the coordinator clock the pull carries and ships its chip range.
// The hub installs the ranges (Machine.AdoptShard) only once every one has
// decoded, so a failed pull leaves the hub as it was.
func (co *Coordinator) syncHub() *ShardFailure {
	clock := encodeI64(co.cycle)
	defer clear(co.pulled)
	f := co.exchange(cmdPull, repFrame, func(int) []byte { return clock }, func(i int, p []byte) error {
		sc := co.shards[i]
		fr, err := co.m.DecodeShard(p, sc.lo, sc.hi)
		if err == nil && fr.Cycle != co.cycle {
			err = fmt.Errorf("frame at cycle %d, coordinator at %d", fr.Cycle, co.cycle)
		}
		co.pulled[i] = fr
		return err
	})
	if f != nil {
		return f
	}
	for _, fr := range co.pulled {
		co.m.AdoptShard(fr)
	}
	return nil
}

// spend records shard failure f and spends one recovery on it, or, with
// none left under the cap, returns the terminal error (wrapping f, so
// guard.Classify still names the cause).
func (co *Coordinator) spend(f *ShardFailure) error {
	co.failures = append(co.failures, *f)
	if co.recoveries >= co.cfg.MaxRecoveries {
		return fmt.Errorf("dist: recovery limit %d exhausted: %w", max(co.cfg.MaxRecoveries, 0), f)
	}
	co.recoveries++
	return nil
}

// recover rewinds the federation to the latest checkpoint after a shard
// failure: every worker is respawned (survivors may hold half-exchanged
// protocol state), the hub takes back a clone of the checkpoint's network
// and its clock (its chips are still the checkpoint's), the buffered trace
// window is discarded, and fired fault drills are disarmed so the replay
// runs clean. The caller then re-attempts the leg with resume=true, which
// reseeds the workers from the rewound hub.
func (co *Coordinator) recover(sf *ShardFailure) error {
	if err := co.spend(sf); err != nil {
		return err
	}
	if co.ck.net == nil {
		return fmt.Errorf("dist: no checkpoint to recover from: %w", sf)
	}
	// Drills up to the last cycle the failed exchange reached may have
	// fired; they are disarmed.
	through := max(co.cycle, co.reach)
	co.reach = 0
	keepChaos := co.chaos[:0]
	for _, c := range co.chaos {
		if c.Cycle > through {
			keepChaos = append(keepChaos, c)
		}
	}
	co.chaos = keepChaos
	keepKill := co.kill[:0]
	for _, k := range co.kill {
		if k.Cycle > through {
			keepKill = append(keepKill, k)
		}
	}
	co.kill = keepKill
	for i := range co.shards {
		if err := co.spawn(i); err != nil {
			return err
		}
	}
	co.m.Rewind(co.ck.net.Clone(), co.ck.cycle)
	co.cycle, *co.loop = co.ck.cycle, co.ck.loop
	co.lastCkpt = co.ck.cycle
	co.pendingTrace.Reset()
	return nil
}
