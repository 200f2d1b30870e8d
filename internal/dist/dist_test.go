package dist

// The determinism matrix: every scenario must produce bit-identical
// results — cycle counts, check outcomes, trace streams, and the sha256
// digest of the final machine snapshot — on the naive, event, parallel,
// and distributed engines, for every shard count, including distributed
// runs that lose and recover workers mid-flight.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/serve"
	"repro/internal/trace"
)

func loadScenario(t *testing.T, name string) *core.Scenario {
	t.Helper()
	sc, err := core.ScenarioFromFile(filepath.Join("..", "..", "testdata", "workloads", name))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// refRun executes a scenario on an in-process engine and fingerprints
// the outcome.
type refOutcome struct {
	res    *core.ScenarioResult
	digest string
	events []trace.Event
}

func refRun(t *testing.T, sc *core.Scenario, o core.Options) refOutcome {
	t.Helper()
	res, s, err := sc.RunSim(o)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	digest, err := s.M.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return refOutcome{res: res, digest: digest, events: s.Recorder.Events}
}

func distRun(t *testing.T, sc *core.Scenario, cfg Config) (*RunResult, []trace.Event) {
	t.Helper()
	if cfg.Launcher == nil {
		cfg.Launcher = LocalLauncher{}
	}
	res, s, err := RunScenario(sc, core.Options{}, cfg)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	return res, s.Recorder.Events
}

func compareOutcome(t *testing.T, ref refOutcome, got *RunResult, events []trace.Event) {
	t.Helper()
	if got.TotalCycles != ref.res.TotalCycles {
		t.Errorf("total cycles %d, want %d", got.TotalCycles, ref.res.TotalCycles)
	}
	if got.Checks != ref.res.Checks {
		t.Errorf("checks %d, want %d", got.Checks, ref.res.Checks)
	}
	if len(got.Phases) != len(ref.res.Phases) {
		t.Fatalf("phases %v, want %v", got.Phases, ref.res.Phases)
	}
	for i := range got.Phases {
		if got.Phases[i] != ref.res.Phases[i] {
			t.Errorf("phase %d: %+v, want %+v", i, got.Phases[i], ref.res.Phases[i])
		}
	}
	if got.Digest != ref.digest {
		t.Errorf("machine digest %s, want %s", got.Digest, ref.digest)
	}
	if len(events) != len(ref.events) {
		t.Fatalf("%d trace events, want %d", len(events), len(ref.events))
	}
	for i := range events {
		if events[i] != ref.events[i] {
			t.Fatalf("trace event %d: %+v, want %+v", i, events[i], ref.events[i])
		}
	}
}

// edgeSource is a scenario at the edges of the lookahead window: every
// node SENDs to a word homed on itself and waits for it (the tight case:
// visible InjectLat+1 cycles after injection), SENDNs a read reply to its
// own node index, then floods node 0 until its message queue overflows
// and the return-to-sender protocol resends; a last phase is quiet from
// its first cycle to its end.
const edgeSource = `
workload "lookahead edge"
mesh 4
const MB 512      ; each node's self-send mailbox word
const FL 1024     ; node 0's flood area, FLOOD words per sender
const ITERS 12
const FLOOD 32

program touch
    movi i2, #0
    movi i1, #{home(node)+MB}
    st [i1], i2
    movi i1, #{home(node)+FL}
    st [i1], i2
    halt
end

program self
    movi i1, #{home(node)+MB}
    movi i2, #{dipsync}
    movi i4, #0
    movi i7, #{ITERS}
sloop:
    add i3, i4, #1
    send i1, i2, i3, #1
    ldsy.fe i4, [i1]
    lt i6, i4, i7
    brt i6, sloop
    movi i1, #{node}
    movi i6, #{RREPLY}
    movi i8, #{REGDESC}
    movi i9, #{node*7+5}
    sendn i1, i6, i8, #2
    halt
end

program flood
    movi i1, #{home(0)+FL+node*FLOOD}
    movi i2, #{dip}
    movi i3, #1
    movi i7, #{FLOOD+1}
floop:
    send i1, i2, i3, #1
    add i1, i1, #1
    add i3, i3, #1
    lt i6, i3, i7
    brt i6, floop
    halt
end

phase touch
load touch on all vthread=3 cluster=3
run 100000

phase self
load self on all
run 100000

phase flood
load flood on all vthread=1
run 100000

phase quiet
run 1000
`

// edgeScenario compiles edgeSource. The read-reply dispatch pointer and
// the register descriptor of i12 (V-Thread 0, cluster 0) are the
// runtime's, which the DSL does not name.
func edgeScenario(t *testing.T) *core.Scenario {
	t.Helper()
	s, err := core.NewSim(core.Options{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	dip := s.RT.DIPReadReply
	s.M.Close()
	src := fmt.Sprintf("const RREPLY %d\nconst REGDESC %d\n", dip, isa.RegDesc(0, 0, isa.Reg{Class: isa.RInt, Index: 12}))
	src = strings.Replace(edgeSource, "mesh 4\n", "mesh 4\n"+src, 1)
	for n := 0; n < 4; n++ {
		src += fmt.Sprintf("expect reg node=%d reg=4 value=ITERS\nexpect reg node=%d reg=12 value=%d\n", n, n, n*7+5)
		src += fmt.Sprintf("expect mem node=0 addr=home(0)+FL+%d*FLOOD+FLOOD-1 value=FLOOD\n", n)
	}
	sc, err := core.ScenarioFromDSL("lookahead-edge.wl", src)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestEdgeScenarioHitsTheEdges: the edge scenario keeps exercising what it
// is in the matrix for — self-sends, a SENDN to the sender's own index,
// rejected messages and their resends.
func TestEdgeScenarioHitsTheEdges(t *testing.T) {
	ref := refRun(t, edgeScenario(t), core.Options{})
	seen := map[string]int{}
	for _, e := range ref.events {
		node := noc.Coord{X: int(e.Node)} // a 4x1x1 mesh: node index = X
		switch {
		case e.Kind == trace.SendPri0 && noc.Coord{X: int(e.X), Y: int(e.Y), Z: int(e.Z)} == node:
			seen["self-send"]++
		case e.Kind == trace.SendPri1 && e.Peer == e.Node:
			seen["sendn-self"]++
		case e.Kind == trace.MsgReject:
			seen["reject"]++
		case e.Kind == trace.Resend:
			seen["resend"]++
		}
	}
	for _, what := range []string{"self-send", "sendn-self", "reject", "resend"} {
		if seen[what] == 0 {
			t.Errorf("edge scenario emits no %s (saw %v)", what, seen)
		}
	}
}

func TestDistDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in full mode only")
	}
	scenarios := []*core.Scenario{edgeScenario(t)}
	for _, name := range []string{"meshsmooth4.wl", "stencil7x2.wl", "redblack.wl"} {
		scenarios = append(scenarios, loadScenario(t, name))
	}
	for _, sc := range scenarios {
		t.Run(filepath.Base(sc.Name), func(t *testing.T) {
			engines := map[string]core.Options{
				"naive":    {NaiveEngine: true},
				"event":    {},
				"parallel": {Workers: 4},
			}
			refs := map[string]refOutcome{}
			for eng, o := range engines {
				refs[eng] = refRun(t, sc, o)
			}
			// All in-process engines must agree with each other first.
			for eng, ref := range refs {
				if ref.digest != refs["event"].digest {
					t.Fatalf("engine %s digest %s, event engine %s", eng, ref.digest, refs["event"].digest)
				}
			}
			// A checkpoint cadence of 7 is no multiple of the window, so
			// checkpoint heads clip windows mid-stride.
			for _, shards := range []int{2, 3} {
				for _, every := range []int64{7, 256} {
					got, events := distRun(t, sc, Config{Shards: shards, CheckpointEvery: every})
					compareOutcome(t, refs["event"], got, events)
				}
			}
		})
	}
}

// frameCounter counts the command frames a coordinator writes, by kind,
// parsing the [kind][len u32 LE][payload] stream from outside the
// protocol code, logs shard 0's seeds, step windows and pull clocks
// (the leading words of their payloads), and keeps every shard's seed
// payloads in send order. Only the coordinator's goroutine writes to a
// handle.
type frameCounter struct {
	launcher LocalLauncher
	sent     map[byte]int
	log      []sentFrame
	seeds    [][]byte
}

// sentFrame is one logged command: a step window [at, at+width), a pull
// at clock at, or a seed.
type sentFrame struct {
	kind      byte
	at, width int64
}

func (fc *frameCounter) Start(shard int) (Handle, error) {
	h, err := fc.launcher.Start(shard)
	if err != nil {
		return nil, err
	}
	return &countingHandle{Handle: h, fc: fc, logged: shard == 0}, nil
}

type countingHandle struct {
	Handle
	fc       *frameCounter
	logged   bool
	hdr, pay []byte
	remain   int
}

func (h *countingHandle) Write(p []byte) (int, error) {
	n, err := h.Handle.Write(p)
	for q := p[:n]; len(q) > 0; {
		if h.remain > 0 {
			k := min(h.remain, len(q))
			h.pay = append(h.pay, q[:k]...)
			h.remain, q = h.remain-k, q[k:]
			if h.remain == 0 {
				h.frameDone()
			}
			continue
		}
		k := min(5-len(h.hdr), len(q))
		h.hdr, q = append(h.hdr, q[:k]...), q[k:]
		if len(h.hdr) == 5 {
			h.fc.sent[h.hdr[0]]++
			h.remain, h.pay = int(binary.LittleEndian.Uint32(h.hdr[1:])), h.pay[:0]
			if h.remain == 0 {
				h.frameDone()
			}
		}
	}
	return n, err
}

func (h *countingHandle) frameDone() {
	kind := h.hdr[0]
	h.hdr = h.hdr[:0]
	if kind == cmdSeed {
		h.fc.seeds = append(h.fc.seeds, bytes.Clone(h.pay))
	}
	if !h.logged || (kind != cmdSeed && kind != cmdStep && kind != cmdPull) {
		return
	}
	f := sentFrame{kind: kind}
	if kind != cmdSeed {
		f.at = int64(binary.LittleEndian.Uint64(h.pay))
	}
	if kind == cmdStep {
		f.width = int64(binary.LittleEndian.Uint64(h.pay[8:]))
	}
	h.fc.log = append(h.fc.log, f)
}

// TestDistWindowedExchanges: one step exchange covers a lookahead window,
// so a shard gets at most one step command per two simulated cycles on a
// busy scenario (at one exchange per stepped cycle it got ~0.9 per cycle);
// and no window straddles a checkpoint head, so checkpoints land on the
// cycles the cadence names, window or no window.
func TestDistWindowedExchanges(t *testing.T) {
	sc := loadScenario(t, "meshsmooth4.wl")
	ref := refRun(t, sc, core.Options{})
	for _, shards := range []int{2, 3} {
		fc := &frameCounter{sent: map[byte]int{}}
		got, events := distRun(t, sc, Config{Shards: shards, Launcher: fc})
		compareOutcome(t, ref, got, events)
		perCycle := float64(fc.sent[cmdStep]) / float64(got.TotalCycles)
		t.Logf("%d shards: %d step commands over %d cycles = %.3f per cycle", shards, fc.sent[cmdStep], got.TotalCycles, perCycle)
		if perCycle > float64(shards)/2 {
			t.Errorf("%d shards: %.3f step commands per simulated cycle, want <= %.1f", shards, perCycle, float64(shards)/2)
		}
	}

	const every = 7
	fc := &frameCounter{sent: map[byte]int{}}
	got, events := distRun(t, sc, Config{Shards: 2, Launcher: fc, CheckpointEvery: every})
	compareOutcome(t, ref, got, events)
	// A leg's entry checkpoint is at its first window; each later pull is a
	// checkpoint (or the leg's end, after which a seed starts the next).
	lastCk, entry, windows := int64(0), false, 0
	for _, f := range fc.log {
		switch f.kind {
		case cmdSeed:
			entry = true
		case cmdPull:
			lastCk = f.at
		case cmdStep:
			if entry {
				lastCk, entry = f.at, false
			}
			if f.at+f.width > lastCk+every {
				t.Fatalf("window [%d,%d) crosses the checkpoint head at %d", f.at, f.at+f.width, lastCk+every)
			}
			windows++
		}
	}
	if windows != fc.sent[cmdStep]/2 || got.Checkpoints < int(got.TotalCycles)/(2*every) {
		t.Fatalf("logged %d windows of %d step commands, %d checkpoints over %d cycles",
			windows, fc.sent[cmdStep], got.Checkpoints, got.TotalCycles)
	}
}

// earlyLauncher's workers report, after every cycle of a window, that a
// chip is due on the very next cycle — an early NextEvent, which the
// contract allows (DESIGN.md, "The NextEvent contract": it costs a
// spurious visit, never a result). The coordinator then never jumps: it
// walks every quiet tail window by window, so each leg must end on its
// in-process cycle by the QuietLoop.Horizon clip alone.
type earlyLauncher struct{ dims noc.Coord }

func (l earlyLauncher) Start(shard int) (Handle, error) {
	h, err := LocalLauncher{}.Start(shard)
	if err != nil {
		return nil, err
	}
	return &stepRewriter{Handle: h, net: noc.New(l.dims, noc.DefaultConfig()), edit: func(rep *stepReply) bool {
		for k := range rep.Cycles {
			rep.Cycles[k].Act.Next = 0 // due now, whatever now is
		}
		return true
	}}, nil
}

// stepRewriter hands each step reply to edit on its way to the
// coordinator, and sends it on re-encoded if edit reports a change.
type stepRewriter struct {
	Handle
	net  *noc.Network // message codec only
	edit func(rep *stepReply) bool
	rest []byte // rewritten bytes not yet read
}

func (h *stepRewriter) Read(p []byte) (int, error) {
	if len(h.rest) == 0 {
		kind, payload, err := readFrame(h.Handle, nil)
		if err != nil {
			return 0, err
		}
		if kind == repStep {
			var rep stepReply
			if err := decodeStepReply(h.net, payload, &rep); err != nil {
				return 0, err
			}
			if h.edit(&rep) {
				payload = encodeStepReply(nil, h.net, &rep)
			}
		}
		var buf bytes.Buffer
		writeFrame(&buf, kind, payload)
		h.rest = buf.Bytes()
	}
	n := copy(p, h.rest)
	h.rest = h.rest[n:]
	return n, nil
}

func TestDistEarlyWakesStayExact(t *testing.T) {
	for _, sc := range []*core.Scenario{edgeScenario(t), loadScenario(t, "redblack.wl")} {
		ref := refRun(t, sc, core.Options{})
		got, events := distRun(t, sc, Config{Shards: 2, Launcher: earlyLauncher{noc.Coord{X: 4, Y: 1, Z: 1}}})
		compareOutcome(t, ref, got, events)
	}
}

// badReplyLauncher is LocalLauncher, except that one step reply, the
// first it can break, gains a consumption the coordinator must refuse:
// with row "too-many", one more message than a mailbox holds; with row
// "early", messages up to one delivered by the Step of the very cycle
// the reply section covers, which no chip could see yet. It rewrites one
// reply in the run (respawned workers answer untouched) and records the
// refusal the coordinator owes it.
type badReplyLauncher struct {
	dims noc.Coord
	row  string
	want *ShardFailure // nil until a reply is rewritten
}

func (l *badReplyLauncher) Start(shard int) (Handle, error) {
	h, err := LocalLauncher{}.Start(shard)
	if err != nil {
		return nil, err
	}
	b := &badReplyHandle{l: l, shard: shard}
	b.stepRewriter = stepRewriter{Handle: h, net: noc.New(l.dims, noc.DefaultConfig()), edit: b.rewrite}
	return b, nil
}

// badReplyHandle follows its worker's mailbox from outside the protocol
// code: the visibility cycle of every message shipped to it, per (node,
// pri), oldest first, less what its replies report consumed.
type badReplyHandle struct {
	stepRewriter
	l     *badReplyLauncher
	shard int
	wbuf  []byte          // command bytes not yet parsed
	cmd   *stepCmd        // the latest step command
	mail  map[int][]int64 // by node*noc.NumPriorities+pri
}

func (h *badReplyHandle) Write(p []byte) (int, error) {
	n, err := h.Handle.Write(p)
	h.wbuf = append(h.wbuf, p[:n]...)
	for len(h.wbuf) >= 5 {
		size := 5 + int(binary.LittleEndian.Uint32(h.wbuf[1:]))
		if len(h.wbuf) < size {
			break
		}
		switch h.wbuf[0] {
		case cmdSeed:
			h.mail = map[int][]int64{} // a seeded mailbox is empty
		case cmdStep:
			h.cmd, _ = decodeStep(h.net, h.wbuf[5:size])
			for _, d := range h.cmd.Deliveries {
				q := d.Node*noc.NumPriorities + d.Pri
				h.mail[q] = append(h.mail[q], d.At)
			}
		}
		h.wbuf = h.wbuf[size:]
	}
	return n, err
}

// rewrite walks the reply's sections, retiring their consumptions from
// the mailbox, and appends the row's bad consumption to the first section
// where a mailbox queue allows one, once per run.
func (h *badReplyHandle) rewrite(rep *stepReply) bool {
	for k := 0; k < len(rep.Cycles) && h.l.want == nil; k++ {
		out, s := &rep.Cycles[k], h.cmd.Cycle+int64(k)
		for _, c := range out.Consumed {
			q := c.Node*noc.NumPriorities + c.Pri
			h.mail[q] = h.mail[q][c.N:]
		}
		for _, q := range slices.Sorted(maps.Keys(h.mail)) {
			at := h.mail[q]
			n := len(at) + 1
			if h.l.row == "early" {
				n = slices.Index(at, s+1) + 1
			}
			if n == 0 || len(at) == 0 {
				continue
			}
			bad := consumption{Node: q / noc.NumPriorities, Pri: q % noc.NumPriorities, N: n}
			out.Consumed = append(out.Consumed, bad)
			h.l.want = &ShardFailure{Shard: h.shard, Class: guard.ClassCrash,
				Err: fmt.Errorf("bogus consumption: node %d pri %d n %d at cycle %d", bad.Node, bad.Pri, bad.N, s)}
			return true
		}
	}
	return false
}

// TestDistRefusesBadConsumptions pins the coordinator's check of a
// worker's reply, which is outside input: a section for cycle s may
// retire, from a node the shard owns, only messages shipped to it and
// delivered before s. A reply breaking either half is refused as a crash
// at exactly that consumption — the hub never acts on it — and the run
// recovers to the in-process result.
func TestDistRefusesBadConsumptions(t *testing.T) {
	sc := loadScenario(t, "meshsmooth4.wl")
	ref := refRun(t, sc, core.Options{})
	for _, row := range []string{"too-many", "early"} {
		t.Run(row, func(t *testing.T) {
			l := &badReplyLauncher{dims: noc.Coord{X: 4, Y: 1, Z: 1}, row: row}
			got, events := distRun(t, sc, Config{Shards: 2, CheckpointEvery: 200, Launcher: l})
			compareOutcome(t, ref, got, events)
			if l.want == nil {
				t.Fatal("no step reply was rewritten")
			}
			if len(got.Failures) == 0 {
				t.Fatalf("the rewritten reply was accepted; want %v", l.want)
			}
			f := got.Failures[0]
			if f.Shard != l.want.Shard || f.Class != l.want.Class || f.Err.Error() != l.want.Err.Error() {
				t.Fatalf("first failure: shard %d %s: %v; want shard %d %s: %v",
					f.Shard, f.Class, f.Err, l.want.Shard, l.want.Class, l.want.Err)
			}
		})
	}
}

func TestMain(m *testing.M) {
	MaybeWorker() // the test binary doubles as the process-worker executable
	os.Exit(m.Run())
}

// TestDistRecoverFromCrash injects a deterministic worker panic mid-run:
// the coordinator must classify it as a crash, rewind to the latest
// checkpoint, respawn, disarm the fired fault, and finish with results
// bit-identical to an undisturbed in-process run.
func TestDistRecoverFromCrash(t *testing.T) {
	sc := loadScenario(t, "meshsmooth4.wl")
	ref := refRun(t, sc, core.Options{})
	got, events := distRun(t, sc, Config{
		Shards:          2,
		CheckpointEvery: 200,
		Chaos:           []ChaosSpec{{Node: 1, Cycle: 600, Kind: "panic"}, {Node: 3, Cycle: 2000, Kind: "panic"}},
	})
	compareOutcome(t, ref, got, events)
	if got.Recoveries < 2 {
		t.Errorf("recoveries = %d, want >= 2", got.Recoveries)
	}
	crashes := 0
	for _, f := range got.Failures {
		if f.Class == guard.ClassCrash {
			crashes++
		}
	}
	if crashes < 2 {
		t.Errorf("crash failures = %d (%+v), want >= 2", crashes, got.Failures)
	}
}

// TestDistRecoverFromStall wedges a worker mid-step, its connection still
// open: the window deadline must classify it as a stall (not lost), and
// recovery must still produce bit-identical results.
func TestDistRecoverFromStall(t *testing.T) {
	sc := loadScenario(t, "meshsmooth4.wl")
	ref := refRun(t, sc, core.Options{})
	got, events := distRun(t, sc, Config{
		Shards:          2,
		CheckpointEvery: 200,
		WindowTimeout:   400 * time.Millisecond,
		Chaos:           []ChaosSpec{{Node: 2, Cycle: 900, Kind: "hang"}},
	})
	compareOutcome(t, ref, got, events)
	stalls := 0
	for _, f := range got.Failures {
		if f.Class == guard.ClassStallTimeout {
			stalls++
		}
	}
	if stalls == 0 {
		t.Errorf("no stall-class failure recorded: %+v", got.Failures)
	}
}

// TestDistRecoverFromLost severs a worker's pipe mid-run (the
// local stand-in for a SIGKILLed process): lost-connection class, then
// bit-identical recovery.
func TestDistRecoverFromLost(t *testing.T) {
	sc := loadScenario(t, "redblack.wl")
	ref := refRun(t, sc, core.Options{})
	got, events := distRun(t, sc, Config{
		Shards:          2,
		CheckpointEvery: 128,
		Kill:            []KillSpec{{Shard: 1, Cycle: 500}},
	})
	compareOutcome(t, ref, got, events)
	lost := 0
	for _, f := range got.Failures {
		if f.Class == guard.ClassLost {
			lost++
		}
	}
	if lost == 0 {
		t.Errorf("no lost-class failure recorded: %+v", got.Failures)
	}
}

// pullCutLauncher is LocalLauncher, except that shard 1's first worker
// dies half-way through its reply to its first pull: the coordinator reads
// the reply's header, then the connection is severed.
type pullCutLauncher struct{ armed bool }

func (l *pullCutLauncher) Start(shard int) (Handle, error) {
	h, err := LocalLauncher{}.Start(shard)
	if err != nil || shard != 1 || l.armed {
		return h, err
	}
	l.armed = true
	return &pullCutHandle{Handle: h}, nil
}

type pullCutHandle struct {
	Handle
	pulled bool // the first pull has gone out
	read   int  // reply bytes read since
}

// Write spots the pull by its header: writeFrame writes a frame's 5-byte
// header in a call of its own.
func (h *pullCutHandle) Write(p []byte) (int, error) {
	if len(p) == 5 && p[0] == cmdPull {
		h.pulled = true
	}
	return h.Handle.Write(p)
}

func (h *pullCutHandle) Read(p []byte) (int, error) {
	if !h.pulled {
		return h.Handle.Read(p)
	}
	if h.read >= 5 {
		h.Kill()
		return 0, io.ErrClosedPipe
	}
	n, err := h.Handle.Read(p[:min(len(p), 5-h.read)])
	h.read += n
	return n, err
}

// TestDistPullDiesHalfway: a pull whose second shard dies mid-reply,
// after the first shard's range has arrived and decoded, leaves the hub
// at its checkpoint — no shard installed — so the recovered run equals an
// undisturbed one.
func TestDistPullDiesHalfway(t *testing.T) {
	sc := loadScenario(t, "meshsmooth4.wl")
	ref := refRun(t, sc, core.Options{})
	got, events := distRun(t, sc, Config{Shards: 2, Launcher: &pullCutLauncher{}})
	compareOutcome(t, ref, got, events)
	if got.Recoveries != 1 || len(got.Failures) != 1 || got.Failures[0].Shard != 1 || got.Failures[0].Class != guard.ClassLost {
		t.Errorf("%d recoveries, failures %+v; want one recovery from shard 1 lost", got.Recoveries, got.Failures)
	}
}

// TestDistSeedsOneMachinePerLeg: each worker is seeded with its own range
// only, so a leg's seeds to 3 shards of an 8-node mesh total about one
// frame of the whole machine (a full snapshot per worker is 3x that).
// Each frame is a stream of its own, so it also carries its own program
// table: the bound is one frame of the machine plus the table entries the
// three ranges' frames repeat.
func TestDistSeedsOneMachinePerLeg(t *testing.T) {
	sc, err := core.ScenarioFromDSL("bench.wl", benchSource)
	if err != nil {
		t.Fatal(err)
	}
	fc := &frameCounter{sent: map[byte]int{}}
	got, _ := distRun(t, sc, Config{Shards: 3, Launcher: fc})
	if got.Recoveries != 0 || len(fc.seeds) != 3*len(got.Phases) {
		t.Fatalf("%d seeds over %d legs, %d recoveries; want 3 per leg and none", len(fc.seeds), len(got.Phases), got.Recoveries)
	}
	ranges := [][2]int{{0, 3}, {3, 6}, {6, 8}}
	for leg := 0; leg < len(fc.seeds); leg += 3 {
		cfg, err := machine.ReadShardConfig(fc.seeds[leg])
		if err != nil {
			t.Fatal(err)
		}
		m := machine.New(cfg)
		sent := 0
		for i, rg := range ranges {
			p := fc.seeds[leg+i]
			sent += len(p)
			f, err := m.DecodeShard(p, rg[0], rg[1])
			if err != nil {
				t.Fatal(err)
			}
			m.AdoptShard(f)
		}
		var whole bytes.Buffer
		if err := m.EncodeShard(&whole, 0, 8); err != nil {
			t.Fatal(err)
		}
		repeated := -programTable(m, 0, 8)
		for _, rg := range ranges {
			repeated += programTable(m, rg[0], rg[1])
		}
		m.Close()
		t.Logf("leg %d: %d seed bytes, one 8-node frame %d, repeated program table entries %d", leg/3, sent, whole.Len(), repeated)
		if bound := 1.05 * float64(whole.Len()+repeated); float64(sent) > bound {
			t.Errorf("leg %d: seeds total %d bytes, over 1.05x the %d of one frame of the machine plus %d of repeated program table entries", leg/3, sent, whole.Len(), repeated)
		}
	}
}

// programTable returns the bytes the program table of a stream holding
// nodes [lo, hi) takes beyond its program references: for each distinct
// program, its name and its words, each with its length.
func programTable(m *machine.Machine, lo, hi int) int {
	seen := map[string]bool{}
	n := 0
	for _, ch := range m.Chips[lo:hi] {
		for _, cl := range ch.Clusters {
			for _, th := range cl.Threads {
				if th.Prog == nil {
					continue
				}
				words := isa.EncodeProgram(th.Prog)
				if key := fmt.Sprint(th.Prog.Name, words); !seen[key] {
					seen[key] = true
					n += 8 + len(th.Prog.Name) + 8 + 8*len(words)
				}
			}
		}
	}
	return n
}

// TestDistRecoveryLimit proves the coordinator gives up instead of
// flapping: a chain of faults longer than the recovery cap — each fired
// fault is disarmed, but the next one is waiting — must end in a
// terminal recovery-limit error, not an endless rewind loop.
func TestDistRecoveryLimit(t *testing.T) {
	sc := loadScenario(t, "stencil7x2.wl")
	_, _, err := RunScenario(sc, core.Options{}, Config{
		Shards:          1,
		Launcher:        LocalLauncher{},
		CheckpointEvery: -1, // entry checkpoint only
		MaxRecoveries:   2,
		Chaos: []ChaosSpec{
			{Node: 0, Cycle: 5, Kind: "panic"},
			{Node: 0, Cycle: 10, Kind: "panic"},
			{Node: 0, Cycle: 15, Kind: "panic"},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "recovery limit") {
		t.Fatalf("err = %v, want recovery-limit error", err)
	}
	if c := guard.Classify(err); c != guard.ClassCrash {
		t.Errorf("recovery-limit error classifies as %q, want the cause's class %q", c, guard.ClassCrash)
	}
}

// countingLauncher is LocalLauncher, counting the workers it starts.
type countingLauncher struct {
	LocalLauncher
	started int
}

func (l *countingLauncher) Start(shard int) (Handle, error) {
	l.started++
	return l.LocalLauncher.Start(shard)
}

// TestNewRejectsDeadDrills: a drill that can never fire — a node outside
// the mesh, a shard outside the clamped federation (8 shards of a 4-node
// mesh are 4), a kind the worker does not arm — is a Config error New
// returns before launching any worker, naming the drill, instead of a run
// that ignores it.
func TestNewRejectsDeadDrills(t *testing.T) {
	sc := loadScenario(t, "meshsmooth4.wl")
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Shards: 2, Chaos: []ChaosSpec{{Node: 99, Cycle: 100, Kind: "panic"}}}, "panic drill 99@100"},
		{Config{Shards: 2, Chaos: []ChaosSpec{{Node: -1, Cycle: 100, Kind: "hang"}}}, "hang drill -1@100"},
		{Config{Shards: 2, Chaos: []ChaosSpec{{Node: 1, Cycle: 100, Kind: "stall"}}}, "stall drill 1@100"},
		{Config{Shards: 2, Kill: []KillSpec{{Shard: 7, Cycle: 100}}}, "kill drill 7@100"},
		{Config{Shards: 8, Kill: []KillSpec{{Shard: 5, Cycle: 100}}}, "kill drill 5@100"},
	} {
		s, err := sc.NewSim(core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		l := &countingLauncher{}
		tc.cfg.Launcher = l
		co, err := New(s.M, tc.cfg)
		if err == nil {
			co.Close()
		}
		s.M.Close()
		if !errors.Is(err, ErrDeadDrill) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("New(%+v) = %v; want an ErrDeadDrill naming %q", tc.cfg, err, tc.want)
		}
		if l.started != 0 {
			t.Errorf("New(%+v) launched %d worker(s) before rejecting the drill", tc.cfg, l.started)
		}
	}
	// The live edges still run: the last node, the last clamped shard.
	s, err := sc.NewSim(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.M.Close()
	co, err := New(s.M, Config{Shards: 8, Launcher: LocalLauncher{},
		Chaos: []ChaosSpec{{Node: 3, Cycle: 100, Kind: "hang"}}, Kill: []KillSpec{{Shard: 3, Cycle: 100}}})
	if err != nil {
		t.Fatalf("New with in-range drills: %v", err)
	}
	co.Close()
}

// TestWorkerLifecycle: a worker is one goroutine — it writes nothing but
// the reply to the command it read, so it needs no lock — and Close ends
// every worker by hanging up.
func TestWorkerLifecycle(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Dims = noc.Coord{X: 4, Y: 1, Z: 1}
	m := machine.New(cfg)
	defer m.Close()
	base := settledGoroutines()
	co, err := New(m, Config{Shards: 3, Launcher: LocalLauncher{}})
	if err != nil {
		t.Fatal(err)
	}
	got := settledGoroutines()
	co.Close()
	if got != base+3 {
		t.Errorf("%d goroutines with 3 workers up, want %d: one per worker", got, base+3)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5s after Close, want %d: a worker outlived the hang-up", runtime.NumGoroutine(), base)
		}
	}
}

// settledGoroutines is the goroutine count once it has held still for
// 20ms, so neither the workers of earlier tests that are still exiting
// nor a timer callback of theirs counts.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 20; still++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		}
	}
	return n
}

// TestBudgetExactAcrossTransports: one budget clamp (guard.Supervisor.
// RunPhase) serves every transport, so the same scenario with the same
// `budget N` is cut off at machine cycle N exactly — and in the identical
// machine state — in process and distributed, unsliced and in slices of 7
// and 512 cycles, and as an msimd session that checkpoints at every slice
// and resumes from one after an injected panic: for N below one quiet
// window, N that leaves a later leg less than a quiet window, N mid-phase,
// and N above the scenario's total (no cutoff, equal results).
func TestBudgetExactAcrossTransports(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "workloads", "redblack.wl")
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	withBudget := func(n int64) (*core.Scenario, string) {
		src := strings.Replace(string(text), "\nmesh 4\n", fmt.Sprintf("\nmesh 4\nbudget %d\n", n), 1)
		sc, err := core.ScenarioFromDSL(path, src)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Plan.CycleBudget != n {
			t.Fatalf("budget directive not applied: plan budget %d, want %d", sc.Plan.CycleBudget, n)
		}
		return sc, src
	}
	free, err := loadScenario(t, "redblack.wl").Run(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(free.Phases) < 2 {
		t.Fatalf("redblack.wl has %d run phases; the test needs a later leg", len(free.Phases))
	}
	firstLegEnd := free.Phases[0].Cycles + machine.QuietWindow

	type budgetCase struct {
		name           string
		budget         int64
		cutoff, sliced bool
	}
	cases := []budgetCase{{"above the total", free.TotalCycles + 1000, false, true}}
	// Each cutoff three cycles in a row, so two of the three end inside a
	// lookahead window — whichever cycle the windows happen to start on.
	// The first of the three also runs sliced.
	for _, c := range []budgetCase{
		{"below one quiet window", machine.QuietWindow - 12, true, true},
		{"later leg gets less than a quiet window", firstLegEnd + 10, true, true},
		{"mid-phase", free.TotalCycles / 2, true, true},
	} {
		for d := int64(0); d < 3; d++ {
			cases = append(cases, budgetCase{fmt.Sprintf("%s, +%d", c.name, d), c.budget + d, true, d == 0})
		}
	}

	// drive runs sc in slices of slice cycles (0: unsliced), in process or
	// over two shards, and reads the verdict and the final machine digest.
	drive := func(sc *core.Scenario, slice int64, distributed bool) (verdict, string) {
		s, err := sc.NewSim(core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.M.Close()
		var leg guard.LegRunner = s.M
		if distributed {
			co, err := New(s.M, Config{Shards: 2, Launcher: LocalLauncher{}})
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()
			leg = co
		}
		v := runVerdict(sc.NewRun(s).Drive(guard.NewOver(leg, s.M, sc.Supervision(core.Options{})), slice, nil))
		d, err := s.M.Digest()
		if err != nil {
			t.Fatal(err)
		}
		return v, d
	}
	// One msimd server per slice length; every session panics once, at a
	// cycle drawn below 700, and its retry resumes from the latest slice
	// checkpoint before it.
	slices := []int64{7, 512}
	servers := make([]*serve.Server, len(slices))
	for i, slice := range slices {
		sv, err := serve.New(serve.Config{Spool: t.TempDir(), Workers: 1, CheckpointEvery: slice, Retries: 2,
			Chaos: &serve.Chaos{Seed: 42, PanicEvery: 1, MaxCycle: 700}})
		if err != nil {
			t.Fatal(err)
		}
		defer sv.Drain()
		servers[i] = sv
	}
	resumed := 0
	for _, c := range cases {
		sc, src := withBudget(c.budget)
		want, wantDigest := drive(sc, 0, false)
		if c.cutoff && (want.class != guard.ClassBudget || want.cycle != c.budget) {
			t.Errorf("%s: in process %+v; want the budget cut off at cycle %d", c.name, want, c.budget)
		}
		if !c.cutoff && (want.state != "done" || want.cycle != free.TotalCycles || want.digest != free.Digest) {
			t.Errorf("%s: in process %+v; want the unbudgeted run's %d cycles, digest %s", c.name, want, free.TotalCycles, free.Digest)
		}
		for _, slice := range append([]int64{0}, slices...) {
			for _, distributed := range []bool{false, true} {
				if slice == 0 && !distributed || slice > 0 && !c.sliced {
					continue // the reference, or a row that runs unsliced only
				}
				got, digest := drive(sc, slice, distributed)
				if got != want || digest != wantDigest {
					t.Errorf("%s, slice %d, distributed %v: %+v, state %s; unsliced in process %+v, state %s",
						c.name, slice, distributed, got, digest, want, wantDigest)
				}
			}
		}
		for i, sv := range servers {
			if !c.sliced {
				break
			}
			session, err := sv.Submit("redblack.wl", src)
			if err != nil {
				t.Fatal(err)
			}
			<-session.Done()
			info := session.Info()
			got := verdictOf(&core.ScenarioResult{TotalCycles: info.TotalCycles, Digest: info.Digest}, "", "")
			if info.State != serve.StateDone {
				got = verdictOf(nil, info.FailureClass, info.Failure)
			}
			if got != want {
				t.Errorf("%s: msimd in %d-cycle slices %+v (retries %d), unsliced in process %+v", c.name, slices[i], got, info.Retries, want)
			}
			resumed += info.Retries
		}
	}
	if resumed == 0 {
		t.Error("no msimd session retried: the resume rows proved nothing")
	}

	t.Run("every front end", func(t *testing.T) { oneVerdict(t) })
}

// verdict is what a front end says about one scenario run: done or
// failed, the failure class, the cycle it ended or was cut off on, and the
// final digest when done. A wall-clock cutoff's cycle depends on the host,
// so it is left out.
type verdict struct {
	state  string
	class  guard.Class
	cycle  int64
	digest string
}

// verdictOf reads a verdict off a run's result, or off its failure: the
// class, and the text, which ends with "at cycle N" naming the cutoff.
func verdictOf(res *core.ScenarioResult, class guard.Class, failure string) verdict {
	if failure == "" {
		return verdict{state: "done", cycle: res.TotalCycles, digest: res.Digest}
	}
	v := verdict{state: "failed", class: class}
	if i := strings.LastIndex(failure, "at cycle "); i >= 0 && class != guard.ClassStallTimeout {
		fmt.Sscanf(failure[i+len("at cycle "):], "%d", &v.cycle)
	}
	return v
}

// runVerdict is verdictOf for an in-process or distributed run.
func runVerdict(res *core.ScenarioResult, err error) verdict {
	if err != nil {
		return verdictOf(nil, guard.Classify(err), err.Error())
	}
	return verdictOf(res, "", "")
}

// oneVerdict runs the same scenarios in process, distributed over two
// shards and as an msimd session whose one slice spans the whole run, and
// requires one verdict from all three: budgets around the run's total
// (total-20 and total-5 end inside its final quiet window) and a 1 ms
// deadline on a run of some 350k cycles. It asserts agreement, not any
// particular verdict.
func oneVerdict(t *testing.T) {
	spin := func(bound string, iters int) string {
		return fmt.Sprintf("workload \"spin\"\nmesh 2\n%s\ngenerate sp spinloop iters=%d\nload sp on all\nrun 100000000\nexpect reg node=1 cluster=0 reg=1 value=%d\n",
			bound, iters, iters)
	}
	free, err := core.ScenarioFromDSL("spin.wl", spin("", 600))
	if err != nil {
		t.Fatal(err)
	}
	total := refRun(t, free, core.Options{}).res.TotalCycles
	type row struct{ name, src string }
	var rows []row
	for _, d := range []int64{-40, -20, -5, 0, 5} {
		rows = append(rows, row{fmt.Sprintf("budget total%+d", d), spin(fmt.Sprintf("budget %d", total+d), 600)})
	}
	rows = append(rows, row{"deadline 1ms", spin("deadline 1ms", 100000)})

	sv, err := serve.New(serve.Config{Spool: t.TempDir(), Workers: 1, CheckpointEvery: 1 << 30, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Drain()
	for _, r := range rows {
		sc, err := core.ScenarioFromDSL(r.name+".wl", r.src)
		if err != nil {
			t.Fatal(err)
		}
		in := runVerdict(sc.Run(core.Options{}))
		var dres *core.ScenarioResult
		rr, _, err := RunScenario(sc, core.Options{}, Config{Shards: 2, Launcher: LocalLauncher{}})
		if rr != nil {
			dres = rr.ScenarioResult
		}
		dist := runVerdict(dres, err)
		session, err := sv.Submit(r.name+".wl", r.src)
		if err != nil {
			t.Fatal(err)
		}
		<-session.Done()
		info := session.Info()
		msimd := verdictOf(&core.ScenarioResult{TotalCycles: info.TotalCycles, Digest: info.Digest}, "", "")
		if info.State != serve.StateDone {
			msimd = verdictOf(nil, info.FailureClass, info.Failure)
		}
		if dist != in || msimd != in {
			t.Errorf("%s: verdicts differ:\n  in process %+v\n  dist       %+v\n  msimd      %+v", r.name, in, dist, msimd)
		}
	}
}

// TestOneDigest: there is one state fingerprint (machine.Digest), so the
// three front ends that report one — Scenario.Run, the distributed
// runner, and an msimd session (unsliced, so it executes the same bound
// sequence) — agree on the same scenario.
func TestOneDigest(t *testing.T) {
	sc := loadScenario(t, "meshsmooth4.wl")
	inProcess, err := sc.Run(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	distributed, _ := distRun(t, sc, Config{Shards: 2})

	sv, err := serve.New(serve.Config{Spool: t.TempDir(), Workers: 1, CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Drain()
	text, err := os.ReadFile(sc.Name)
	if err != nil {
		t.Fatal(err)
	}
	session, err := sv.Submit("meshsmooth4.wl", string(text))
	if err != nil {
		t.Fatal(err)
	}
	<-session.Done()
	info := session.Info()
	if info.State != serve.StateDone {
		t.Fatalf("session: %s (%s: %s)", info.State, info.FailureClass, info.Failure)
	}

	if inProcess.Digest == "" || inProcess.Digest != distributed.Digest || inProcess.Digest != info.Digest {
		t.Errorf("digests disagree:\n  Scenario.Run   %s\n  dist.RunResult %s\n  msimd session  %s",
			inProcess.Digest, distributed.Digest, info.Digest)
	}
}
