package dist

// The shard worker: one process (or in-process goroutine, for tests)
// owning a contiguous node range [lo, hi) of the mesh. It holds a machine
// of the coordinator's configuration whose owned chips, GDT and clock
// each seed installs, and steps only those chips (the others are never
// seeded and never step); the local network is never stepped — it serves
// purely as the chips' mailbox, fed by coordinator deliveries
// (noc.Deliver) and drained by the chips' own network input path. A step
// command covers a window of cycles: before each cycle's chip phase the
// worker delivers exactly the messages tagged with that cycle (never
// earlier — a chip must not see a message before the in-process engines
// would show it), and everything the chips produce in the cycle — outbox
// messages, trace events, consumptions, activity aggregates — goes into
// that cycle's section of the reply. The chip phase is the machine's own
// (Machine.StepRange over the owned range); only the drain differs: the
// stepped chips' outboxes are taken in node-index order instead of being
// injected locally.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime/debug"

	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/trace"
)

// WorkerAddrEnv names the environment variable that turns a process
// into a shard worker: when set, the process dials the coordinator at
// that loopback address and serves the shard protocol instead of
// running its normal command line. cmd/msim and the dist tests'
// TestMain both call MaybeWorker first thing, so the coordinator can
// respawn shards by re-executing its own binary.
const WorkerAddrEnv = "MSIM_WORKER_ADDR"

// MaybeWorker turns the process into a shard worker if WorkerAddrEnv is
// set, never returning in that case. Call it before flag parsing in any
// binary that may be used as a shard worker executable.
func MaybeWorker() {
	addr := os.Getenv(WorkerAddrEnv)
	if addr == "" {
		return
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msim worker: dial coordinator: %v\n", err)
		os.Exit(3)
	}
	err = ServeConn(conn)
	conn.Close()
	if err != nil && !errors.Is(err, io.EOF) {
		fmt.Fprintf(os.Stderr, "msim worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// worker is one shard's serving state. One goroutine serves it, one
// command at a time: it writes nothing but the reply to the command it
// read, so it holds no lock.
type worker struct {
	spec initSpec
	m    *machine.Machine

	// Window buffers, reused: the command frame read, the owned chips'
	// trace sink (records of the current chip phase), the reply being
	// built and its encoding, the chips the current chip phase stepped,
	// and the mailbox counts before it.
	rbuf    []byte
	trace   trace.Recorder
	rep     stepReply
	repBuf  bytes.Buffer
	stepped []int
	before  []pending
	pullBuf bytes.Buffer // pull's frame
}

// ServeConn serves the shard worker protocol on conn, one reply per
// command, until the connection ends: io.EOF when the coordinator hangs
// up, else the transport error. A panic inside a command — a chip bug or
// injected chaos — is contained: the worker reports it as a repErr frame
// (the coordinator classifies it as a crash) and returns it, because the
// machine state is mid-cycle and must not serve further commands.
func ServeConn(conn net.Conn) error {
	w := &worker{}
	if err := writeFrame(conn, repHello, encodeI64(protoVersion)); err != nil {
		return err
	}
	for {
		kind, payload, err := readFrame(conn, &w.rbuf)
		if err != nil {
			return err
		}
		rk, rp, err := w.handle(kind, payload)
		if err != nil {
			// Contained failure: report, then refuse to limp onward.
			writeFrame(conn, repErr, encodeString(err.Error()))
			return err
		}
		if err := writeFrame(conn, rk, rp); err != nil {
			return err
		}
	}
}

// handle dispatches one command, containing panics.
func (w *worker) handle(kind byte, payload []byte) (rk byte, rp []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("shard %d: contained panic: %v\n%s", w.spec.Shard, v, debug.Stack())
		}
	}()
	switch kind {
	case cmdInit:
		var s initSpec
		if err := unframe(payload, s.state); err != nil {
			return 0, nil, err
		}
		w.spec = s
		return repOK, nil, nil
	case cmdSeed:
		return repOK, nil, w.seed(payload)
	case cmdBeginRun:
		a := w.beginRun()
		return repActivity, encodeActivityFrame(&a), nil
	case cmdStep:
		cmd, err := decodeStep(w.m.Net, payload)
		if err != nil {
			return 0, nil, err
		}
		return repStep, encodeStepReply(&w.repBuf, w.m.Net, w.step(cmd)), nil
	case cmdPull:
		to, err := decodeI64(payload)
		if err != nil {
			return 0, nil, err
		}
		if err := w.skipTo(to); err != nil {
			return 0, nil, err
		}
		return repFrame, w.pull(), nil
	default:
		return 0, nil, fmt.Errorf("shard %d: unknown command %#x", w.spec.Shard, kind)
	}
}

// seed installs the shard frame of the worker's range: its chips, the GDT
// and the clock. The first seed builds the machine from the frame's
// configuration. The local network is emptied: the authoritative copy of
// all traffic lives in the coordinator, and a mailbox left over from the
// previous leg would double-deliver.
func (w *worker) seed(p []byte) error {
	if w.m == nil {
		cfg, err := machine.ReadShardConfig(p)
		if err != nil {
			return err
		}
		w.m = machine.New(cfg)
		w.arm()
	}
	f, err := w.m.DecodeShard(p, w.spec.Lo, w.spec.Hi)
	if err != nil {
		return fmt.Errorf("shard %d: seed: %w", w.spec.Shard, err)
	}
	w.m.AdoptShard(f)
	w.m.Net.ClearTraffic()
	// Trace sink on owned chips only: each cycle's records ship with the
	// step reply. Unowned chips never step here, so they need no sink.
	for i := w.spec.Lo; i < w.spec.Hi; i++ {
		w.m.Chips[i].Trace = &w.trace
	}
	return nil
}

// beginRun is the shard half of Machine.RunLoop's entry: wake every owned
// chip so externally mutated state is re-observed, and report the
// activity aggregates the coordinator's first loop-head check needs.
func (w *worker) beginRun() activity {
	for i := w.spec.Lo; i < w.spec.Hi; i++ {
		w.m.Chips[i].Touch()
	}
	return w.activity(w.m.Cycle)
}

func (w *worker) activity(now int64) activity {
	act, next, fault := w.m.ShardActivity(w.spec.Lo, w.spec.Hi, now)
	return activity{Activity: act, Next: next, Fault: fault}
}

// arm installs the init's chaos drills as the machine's fault probe: each
// fires at its node's first step at or after its cycle. Chaos never
// mutates simulated state: a panic is contained and reported, a hang
// wedges the step for good (the window deadline trips), and either way
// the coordinator rewinds and replays the window without the (disarmed)
// drill.
func (w *worker) arm() {
	var probes []faultinject.Probe
	for _, c := range w.spec.Chaos {
		if c.Kind == "hang" {
			probes = append(probes, faultinject.HangFrom(c.Node, c.Cycle, nil))
		} else {
			probes = append(probes, faultinject.PanicFrom(c.Node, c.Cycle))
		}
	}
	if len(probes) > 0 {
		w.m.SetFaultProbe(faultinject.Chain(probes...))
	}
}

// skipTo follows the coordinator's fast-forward of the clock to `to`. Like
// the in-process jump it is one assignment: each owned chip replays the
// idle stretch when it next acts, or when pull encodes it.
func (w *worker) skipTo(to int64) error {
	if to < w.m.Cycle {
		return fmt.Errorf("shard %d: skip to cycle %d, already at %d", w.spec.Shard, to, w.m.Cycle)
	}
	w.m.Cycle = to
	return nil
}

// pending is one mailbox node's message counts per priority.
type pending [noc.NumPriorities]int

// step advances the owned chips through the window of cmd: per cycle, one
// iteration of the in-process engine's chip phase and drain, with that
// cycle's deliveries put in the mailbox first.
func (w *worker) step(cmd *stepCmd) *stepReply {
	if err := w.skipTo(cmd.Cycle); err != nil {
		panic(err) // contained by handle; a protocol bug, not a chip bug
	}
	w.rep.Cycles = w.rep.Cycles[:0]
	d := cmd.Deliveries
	for t := cmd.Cycle; t < cmd.Cycle+int64(cmd.Width); t++ {
		// Replay the deliveries visible from this cycle into the local
		// mailbox and wake their destinations — the in-process machine's
		// wakeArrivals did exactly this at the end of the previous cycle.
		for ; len(d) > 0 && d[0].At == t; d = d[1:] {
			w.m.Net.Deliver(d[0].Node, d[0].Pri, d[0].Msg)
			w.m.Chips[d[0].Node].WakeAt(t)
		}
		w.stepCycle(t, w.rep.section(int(t-cmd.Cycle)))
	}
	return &w.rep
}

// stepCycle runs the chip phase and drain of cycle t into out.
func (w *worker) stepCycle(t int64, out *cycleReply) {
	// The nodes with mailbox messages — the mailbox holds only what the
	// coordinator delivered, so all are owned — and their pending counts
	// before the chip phase, for consumption deltas. The chips' pops do
	// not edit the list, so it is still the same nodes afterwards.
	net := w.m.Net
	arrived := net.ArrivalNodes()
	w.before = w.before[:0]
	for _, node := range arrived {
		co := net.CoordOf(node)
		w.before = append(w.before, pending{net.PendingAt(co, 0), net.PendingAt(co, 1)})
	}

	// Chip phase over the owned range, in node-index order.
	w.stepped = w.m.StepRange(w.spec.Lo, w.spec.Hi, t, w.stepped[:0])

	// Drain phase: the stepped chips' trace buffers and outboxes in
	// node-index order (a chip that did not step produced nothing). The
	// coordinator injects the messages into the authoritative network in
	// the same order, assigning the same sequence numbers as an in-process
	// drain.
	out.Msgs, out.Consumed = out.Msgs[:0], out.Consumed[:0]
	for _, i := range w.stepped {
		w.m.Chips[i].FlushTrace()
		out.Msgs = w.m.Chips[i].TakeOutbox(out.Msgs)
	}
	out.Trace.Reset()
	out.Trace.Drain(&w.trace)

	// Consumption confirmations and next cycle's arrival wake-ups.
	for k, node := range arrived {
		co := net.CoordOf(node)
		for pri, was := range w.before[k] {
			if n := was - net.PendingAt(co, pri); n > 0 {
				out.Consumed = append(out.Consumed, consumption{Node: node, Pri: pri, N: n})
			}
		}
		if net.HasArrivals(node) {
			w.m.Chips[node].WakeAt(t + 1)
		}
	}

	w.m.Cycle = t + 1
	out.Act = w.activity(w.m.Cycle)
}

// pull serializes the owned range as a partial-machine frame for
// coordinated checkpoints and end-of-phase reassembly. The frame is valid
// until the next pull: ServeConn sends it before reading another command.
func (w *worker) pull() []byte {
	w.pullBuf.Reset()
	if err := w.m.EncodeShard(&w.pullBuf, w.spec.Lo, w.spec.Hi); err != nil {
		panic(err)
	}
	return w.pullBuf.Bytes()
}
