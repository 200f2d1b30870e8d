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
	kind, got, err := readFrame(&buf, nil)
	if err != nil || kind != cmdStep || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: kind %#x payload %q err %v", kind, got, err)
	}
}

func TestFrameCorrupt(t *testing.T) {
	// Oversized length must be rejected before allocating.
	huge := []byte{cmdStep, 0xff, 0xff, 0xff, 0xff}
	if _, _, err := readFrame(bytes.NewReader(huge), nil); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized frame: %v", err)
	}
	// Truncated payload must fail with an I/O error, not hang or succeed.
	var buf bytes.Buffer
	writeFrame(&buf, cmdSeed, make([]byte, 64))
	if _, _, err := readFrame(bytes.NewReader(buf.Bytes()[:10]), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: %v", err)
	}
}

func TestInitSpecRoundTrip(t *testing.T) {
	in := initSpec{
		Shard: 2, Lo: 4, Hi: 8,
		Chaos: []ChaosSpec{{Node: 5, Cycle: 999, Kind: "hang"}, {Node: 6, Cycle: 1, Kind: "panic"}},
	}
	var out initSpec
	if err := unframe(encodeInit(&in), out.state); err != nil {
		t.Fatal(err)
	}
	if out.Shard != in.Shard || out.Lo != in.Lo || out.Hi != in.Hi || len(out.Chaos) != 2 ||
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
	cmd := stepCmd{Cycle: 77, Width: 3, Deliveries: []delivery{
		{At: 77, Node: 3, Pri: 0, Msg: msg},
		{At: 79, Node: 1, Pri: 1, Msg: msg},
	}}
	out, err := decodeStep(net, encodeStep(nil, net, &cmd))
	if err != nil {
		t.Fatal(err)
	}
	if out.Cycle != 77 || out.Width != 3 || len(out.Deliveries) != 2 {
		t.Fatalf("round trip: %+v", out)
	}
	d := out.Deliveries[0]
	if d.At != 77 || d.Node != 3 || d.Pri != 0 || d.Msg.DIP != 42 || len(d.Msg.Body) != 2 || !d.Msg.Body[1].Ptr {
		t.Fatalf("delivery round trip: %+v msg %+v", d, d.Msg)
	}
	if d := out.Deliveries[1]; d.At != 79 || d.Node != 1 || d.Pri != 1 {
		t.Fatalf("second delivery round trip: %+v", d)
	}

	// Three per-cycle sections: a full one, an empty one, and one whose
	// trace text table is its own.
	rep := stepReply{Cycles: []cycleReply{
		{
			Msgs:     []*noc.Message{msg},
			Consumed: []consumption{{Node: 3, Pri: 1, N: 2}},
			Trace:    everyKind(),
			Act:      activity{Activity: machine.Activity{Running: 1, Busy: 2, Issued: 3}, Next: 78, Fault: "boom"},
		},
		{Act: activity{Next: 79}},
		{Consumed: []consumption{{Node: 0, Pri: 0, N: 1}}, Trace: everyKind()},
	}}
	// Decode into a reply that already holds longer sections: reuse must
	// not leak an earlier window's contents.
	rout := stepReply{Cycles: make([]cycleReply, 5)}
	for k := range rout.Cycles {
		rout.Cycles[k] = cycleReply{Msgs: []*noc.Message{msg, msg}, Consumed: []consumption{{1, 1, 1}, {2, 2, 2}}}
	}
	if err := decodeStepReply(net, encodeStepReply(nil, net, &rep), &rout); err != nil {
		t.Fatal(err)
	}
	if len(rout.Cycles) != len(rep.Cycles) {
		t.Fatalf("reply round trip: %d sections, want %d", len(rout.Cycles), len(rep.Cycles))
	}
	for k := range rep.Cycles {
		got, want := &rout.Cycles[k], &rep.Cycles[k]
		if len(got.Msgs) != len(want.Msgs) || !slices.Equal(got.Consumed, want.Consumed) ||
			!slices.Equal(got.Trace.Events, want.Trace.Events) || !slices.Equal(got.Trace.Text, want.Trace.Text) ||
			got.Act != want.Act {
			t.Fatalf("reply section %d round trip: %+v, want %+v", k, got, want)
		}
		if g, w := got.Trace.Timeline(got.Trace.Events), want.Trace.Timeline(want.Trace.Events); g != w {
			t.Fatalf("section %d timeline changed on the wire:\n%s\nvs\n%s", k, g, w)
		}
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
// speaks the previous protocol (frames of snapshot version 2): New must
// refuse it with the handshake error — an ordinary error, not a shard
// failure the supervision loop would try to recover from.
func TestHandshakeVersionMismatch(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Dims = noc.Coord{X: 2, Y: 1, Z: 1}
	m := machine.New(cfg)
	defer m.Close()
	_, err := New(m, Config{Shards: 1, Launcher: oldWorkerLauncher{}})
	if err == nil || !strings.Contains(err.Error(), "shard 0 speaks protocol 6, coordinator 7") {
		t.Fatalf("New with a version-6 worker: %v", err)
	}
	if _, recoverable := err.(*ShardFailure); recoverable || guard.Classify(err) != guard.ClassScenario {
		t.Errorf("handshake refusal classified %v (%T), want a plain scenario error", guard.Classify(err), err)
	}
}

// oldWorkerLauncher starts workers that greet with protocol version 6 and
// then only read until the coordinator hangs up.
type oldWorkerLauncher struct{}

func (oldWorkerLauncher) Start(int) (Handle, error) {
	cc, wc := net.Pipe()
	go func() {
		defer wc.Close()
		if writeFrame(wc, repHello, encodeI64(6)) != nil {
			return
		}
		for {
			if _, _, err := readFrame(wc, nil); err != nil {
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
	var spec initSpec
	if err := unframe([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, spec.state); err == nil {
		t.Fatal("garbage initSpec decoded")
	}
	if _, err := decodeStep(net, []byte{0x01, 0x02}); err == nil {
		t.Fatal("truncated stepCmd decoded")
	}
	var rep stepReply
	if err := decodeStepReply(net, []byte{0xee}, &rep); err == nil {
		t.Fatal("truncated stepReply decoded")
	}

	// Step windows: a delivery tagged outside [Cycle, Cycle+Width), or
	// before the one preceding it, and a width outside [1, maxWindow], are
	// decode errors — never a panic or a mis-timed delivery.
	msg := &noc.Message{Dst: noc.Coord{X: 1}}
	at := func(tags ...int64) []delivery {
		var ds []delivery
		for _, a := range tags {
			ds = append(ds, delivery{At: a, Node: 1, Msg: msg})
		}
		return ds
	}
	for _, c := range []struct {
		name string
		cmd  stepCmd
	}{
		{"tag before the window", stepCmd{Cycle: 10, Width: 3, Deliveries: at(9)}},
		{"tag at the window's end", stepCmd{Cycle: 10, Width: 3, Deliveries: at(10, 13)}},
		{"tag going backwards", stepCmd{Cycle: 10, Width: 3, Deliveries: at(10, 12, 11)}},
		{"zero width", stepCmd{Cycle: 10, Width: 0}},
		{"negative width", stepCmd{Cycle: 10, Width: -3, Deliveries: at(10)}},
		{"width beyond maxWindow", stepCmd{Cycle: 10, Width: maxWindow + 1}},
		{"window end overflowing", stepCmd{Cycle: 1<<63 - 2, Width: 3, Deliveries: at(1<<63 - 2)}},
	} {
		if _, err := decodeStep(net, encodeStep(nil, net, &c.cmd)); err == nil {
			t.Errorf("%s: stepCmd %+v decoded", c.name, c.cmd)
		}
	}
	if _, err := decodeStep(net, encodeStep(nil, net, &stepCmd{Cycle: 10, Width: 3, Deliveries: at(10, 10, 12)})); err != nil {
		t.Errorf("in-window, non-decreasing tags: %v", err)
	}

	// Per-cycle sections: a section count beyond maxWindow, and a reply
	// truncated inside any section, are decode errors.
	full := stepReply{Cycles: []cycleReply{
		{Msgs: []*noc.Message{msg}, Trace: everyKind()},
		{Consumed: []consumption{{Node: 1, Pri: 0, N: 1}}, Act: activity{Fault: "x"}},
	}}
	p := encodeStepReply(nil, net, &full)
	for cut := 0; cut < len(p); cut++ {
		if err := decodeStepReply(net, p[:cut], &rep); err == nil {
			t.Fatalf("stepReply truncated to %d of %d bytes decoded", cut, len(p))
		}
	}
	huge := append([]byte(nil), p...)
	huge[0], huge[1] = 0xff, 0xff // section count 65535 > maxWindow
	if err := decodeStepReply(net, huge, &rep); err == nil {
		t.Fatal("stepReply with a section count beyond maxWindow decoded")
	}
}

// TestFrameLargerThanChunk: a payload past the first read chunk arrives
// whole, and a header claiming more than the stream holds is an
// unexpected EOF once the bytes run out.
func TestFrameLargerThanChunk(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), frameChunk/16*3+5)
	var buf bytes.Buffer
	if err := writeFrame(&buf, repFrame, payload); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	kind, got, err := readFrame(bytes.NewReader(whole), nil)
	if err != nil || kind != repFrame || !bytes.Equal(got, payload) {
		t.Fatalf("round trip of %d bytes: kind %#x, %d bytes back, err %v", len(payload), kind, len(got), err)
	}
	if _, _, err := readFrame(bytes.NewReader(whole[:len(whole)-1]), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: err %v, want io.ErrUnexpectedEOF", err)
	}
}
