package dist

// Wire-protocol unit tests: frame framing, payload round trips, and the
// decode side's behavior on corrupt streams (truncation, oversized
// lengths, garbage counts) — the coordinator classifies all of these as
// shard failures, so they must surface as errors, never panics or huge
// allocations.

import (
	"bytes"
	"io"
	"net"
	"slices"
	"strings"
	"testing"

	"repro/internal/events"
	"repro/internal/guard"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/trace"
)

func testNet() *noc.Network {
	return noc.New(noc.Coord{X: 2, Y: 2, Z: 1}, noc.Config{})
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello shard")
	if err := writeFrame(&buf, cmdStep, payload); err != nil {
		t.Fatal(err)
	}
	kind, got, err := readFrame(&buf)
	if err != nil || kind != cmdStep || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: kind %#x payload %q err %v", kind, got, err)
	}
}

func TestFrameCorrupt(t *testing.T) {
	// Oversized length must be rejected before allocating.
	huge := []byte{cmdStep, 0xff, 0xff, 0xff, 0xff}
	if _, _, err := readFrame(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized frame: %v", err)
	}
	// Truncated payload must fail with an I/O error, not hang or succeed.
	var buf bytes.Buffer
	writeFrame(&buf, cmdSeed, make([]byte, 64))
	if _, _, err := readFrame(bytes.NewReader(buf.Bytes()[:10])); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: %v", err)
	}
}

func TestInitSpecRoundTrip(t *testing.T) {
	in := initSpec{
		Shard: 2, Lo: 4, Hi: 8, HeartbeatMillis: 125,
		Chaos: []ChaosSpec{{Node: 5, Cycle: 999, Kind: "hang"}, {Node: 6, Cycle: 1, Kind: "panic"}},
	}
	out, err := decodeInit(encodeInit(&in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Shard != in.Shard || out.Lo != in.Lo || out.Hi != in.Hi ||
		out.HeartbeatMillis != in.HeartbeatMillis || len(out.Chaos) != 2 ||
		out.Chaos[0] != in.Chaos[0] || out.Chaos[1] != in.Chaos[1] {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestStepRoundTrip(t *testing.T) {
	net := testNet()
	msg := &noc.Message{
		Pri: 0, Src: noc.Coord{X: 0}, Dst: noc.Coord{X: 1, Y: 1},
		DIP: 42, DstAddr: 0x1000,
		Body: []isa.Word{{Bits: 7}, {Bits: 9, Ptr: true}},
	}
	cmd := stepCmd{Cycle: 77, Deliveries: []delivery{{Node: 3, Pri: 0, Msg: msg}}}
	out, err := decodeStep(net, encodeStep(net, &cmd))
	if err != nil {
		t.Fatal(err)
	}
	if out.Cycle != 77 || len(out.Deliveries) != 1 {
		t.Fatalf("round trip: %+v", out)
	}
	d := out.Deliveries[0]
	if d.Node != 3 || d.Pri != 0 || d.Msg.DIP != 42 || len(d.Msg.Body) != 2 || !d.Msg.Body[1].Ptr {
		t.Fatalf("delivery round trip: %+v msg %+v", d, d.Msg)
	}

	rep := stepReply{
		Msgs:     []*noc.Message{msg},
		Consumed: []consumption{{Node: 3, Pri: 1, N: 2}},
		Trace:    everyKind(),
		Act:      activity{Activity: machine.Activity{Running: 1, Busy: 2, Issued: 3}, Next: 78, Fault: "boom"},
	}
	rout, err := decodeStepReply(net, encodeStepReply(net, &rep))
	if err != nil {
		t.Fatal(err)
	}
	if len(rout.Msgs) != 1 || rout.Consumed[0] != rep.Consumed[0] ||
		!slices.Equal(rout.Trace.Events, rep.Trace.Events) || !slices.Equal(rout.Trace.Text, rep.Trace.Text) ||
		rout.Act != rep.Act {
		t.Fatalf("reply round trip: %+v", rout)
	}
	if got, want := rout.Trace.Timeline(rout.Trace.Events), rep.Trace.Timeline(rep.Trace.Events); got != want {
		t.Fatalf("timeline changed on the wire:\n%s\nvs\n%s", got, want)
	}
}

// everyKind is a reply's trace section holding one record of every kind,
// with every field of the record non-zero somewhere, negative coordinates
// included (the wire packs them as unsigned halves).
func everyKind() trace.Recorder {
	var r trace.Recorder
	at := noc.Coord{X: 1, Y: -2, Z: trace.MaxCoord}
	for i, e := range []trace.Event{
		{Kind: trace.MemIssue, Sub: uint8(mem.ReqWrite), Arg: 0x410},
		{Kind: trace.MemComplete, Sub: uint8(mem.ReqReadPhys), Arg: 1<<64 - 1},
		{Kind: trace.RetryComplete, Arg: 0x1007},
		{Kind: trace.MRetry, Arg: 0x2a},
		{Kind: trace.TLBW, Arg: 12},
		{Kind: trace.RSTW, Arg: isa.RegDesc(2, 1, isa.Int(7))},
		trace.Fault(events.SyncFault, mem.ReqRead, 0x20),
		trace.Event{Kind: trace.SendPri0, Arg: 2, Sub: 16}.WithPeer(at),
		{Kind: trace.SendPri1, Arg: 9, Sub: 3, Peer: 1<<31 - 1},
		trace.Event{Kind: trace.MsgRecv, Arg: 5, Sub: 1}.WithPeer(at),
		trace.Event{Kind: trace.MsgReject, Arg: 2}.WithPeer(at),
		trace.Event{Kind: trace.Resend, Arg: 2}.WithPeer(at),
		{Kind: trace.ProtFault, Arg: r.AddText("send to untagged address")},
		{Kind: trace.ProtFault, Arg: r.AddText("sendn to bad node -1")},
	} {
		e.Cycle, e.Node = int64(1)<<40+int64(i), int32(3+i)
		r.Events = append(r.Events, e)
	}
	return r
}

// TestHandshakeVersionMismatch pairs the coordinator with a worker that
// speaks the previous protocol (string-carrying trace events): New must
// refuse it with the handshake error — an ordinary error, not a shard
// failure the supervision loop would try to recover from.
func TestHandshakeVersionMismatch(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Dims = noc.Coord{X: 2, Y: 1, Z: 1}
	m := machine.New(cfg)
	defer m.Close()
	_, err := New(m, Config{Shards: 1, Launcher: oldWorkerLauncher{}})
	if err == nil || !strings.Contains(err.Error(), "shard 0 speaks protocol 1, coordinator 2") {
		t.Fatalf("New with a version-1 worker: %v", err)
	}
	if _, recoverable := err.(*ShardFailure); recoverable || guard.Classify(err) != guard.ClassScenario {
		t.Errorf("handshake refusal classified %v (%T), want a plain scenario error", guard.Classify(err), err)
	}
}

// oldWorkerLauncher starts workers that greet with protocol version 1 and
// then only acknowledge the shutdown.
type oldWorkerLauncher struct{}

func (oldWorkerLauncher) Start(int) (Handle, error) {
	cc, wc := net.Pipe()
	go func() {
		defer wc.Close()
		if writeFrame(wc, repHello, encodeI64(1)) != nil {
			return
		}
		for {
			kind, _, err := readFrame(wc)
			if err != nil {
				return
			}
			if kind == cmdShutdown {
				writeFrame(wc, repOK, nil)
				return
			}
		}
	}()
	return &localHandle{Conn: cc, peer: wc}, nil
}

func TestDecodeCorruptPayloads(t *testing.T) {
	net := testNet()
	// A payload that is nothing but a huge count: the armed stream-length
	// limit must reject it descriptively instead of allocating.
	if _, err := decodeInit([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("garbage initSpec decoded")
	}
	if _, err := decodeStep(net, []byte{0x01, 0x02}); err == nil {
		t.Fatal("truncated stepCmd decoded")
	}
	if _, err := decodeStepReply(net, []byte{0xee}); err == nil {
		t.Fatal("truncated stepReply decoded")
	}
}
