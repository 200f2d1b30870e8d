package dist

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/noc"
)

// pinnedFrame is one frame of every snap-encoded kind with the sha256 of
// its bytes.
type pinnedFrame struct {
	name, sha string
	frame     []byte
}

func pinnedFrames() []pinnedFrame {
	net := testNet()
	orig := &noc.Message{
		Pri: 0, Src: noc.Coord{X: 1, Y: 1}, Dst: noc.Coord{Y: 1},
		DIP: 7, DstAddr: 0x2000, Body: []isa.Word{{Bits: 3, Ptr: true}, {Bits: 1<<64 - 1}},
		Seq: 11, InjectedAt: 40, DeliveredAt: 46, Hops: 2,
	}
	nack := &noc.Message{
		Pri: 1, Src: noc.Coord{Y: 1}, Dst: noc.Coord{X: 1, Y: 1},
		Seq: 12, HWAck: true, InjectedAt: 46, DeliveredAt: 52, Hops: 2, Orig: orig,
	}
	act := activity{Activity: machine.Activity{Running: 2, Busy: 3, Issued: 1 << 40}, Next: 91, Fault: "c1 v2: protection"}
	return []pinnedFrame{
		{"init", "4d7ff00c9c01397be77601dbd7a96c11c704bf4557d427b1e50ace59e04231a5", encodeInit(&initSpec{Shard: 1, Lo: 2, Hi: 4,
			Chaos: []ChaosSpec{{Node: 3, Cycle: 500, Kind: "panic"}, {Node: 2, Cycle: 9, Kind: "hang"}}})},
		{"step", "aa2e3da0725e0fce06f58f749b0f9a9ebaaee612205f0cc2385f843a3a2463ad", encodeStep(nil, net, &stepCmd{Cycle: 90, Width: 3, Deliveries: []delivery{
			{At: 90, Node: 2, Pri: 0, Msg: orig}, {At: 92, Node: 3, Pri: 1, Msg: nack}}})},
		{"step-reply", "0c8568c3b4b5f9cd360945686a7153a449bc31f1d4de8f83e3ed404b19223e11", encodeStepReply(nil, net, &stepReply{Cycles: []cycleReply{
			{Msgs: []*noc.Message{orig, nack}, Consumed: []consumption{{Node: 2, Pri: 1, N: 3}}, Trace: everyKind(), Act: act},
			{Act: activity{Next: machine.NoEvent}},
		}})},
		{"activity", "1da77f5fda4e737378ac00129facb162b3666edc8f864319e9b79fe0a8f47c18", encodeActivityFrame(&act)},
		{"seed", "16d340db1ab75593d6265ad7a558526b36b646bc040512988a471dbd58719248", seedFrame()},
	}
}

// seedFrame is a seed: the shard frame of node 1 of a fresh 2-node
// machine with one GDT entry.
func seedFrame() []byte {
	cfg := machine.DefaultConfig()
	cfg.Dims = noc.Coord{X: 2, Y: 1, Z: 1}
	m := machine.New(cfg)
	defer m.Close()
	if err := m.MapNodeRange(0x4000, 2, 1); err != nil {
		panic(err)
	}
	var b bytes.Buffer
	if err := m.EncodeShard(&b, 1, 2); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// TestFrameBytesPinned pins the wire bytes of one frame of every
// snap-encoded kind, so a change to the codec or to any walk that leaves
// the round trips green but moves a byte is caught.
func TestFrameBytesPinned(t *testing.T) {
	for _, c := range pinnedFrames() {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.frame)); got != c.sha {
			t.Errorf("%s frame sha256 %s, want %s", c.name, got, c.sha)
		}
	}
}

// FuzzFrames: arbitrary bytes on the wire — read as a frame, and decoded
// as every payload kind a coordinator or worker decodes, seeds included —
// end in an error
// or a value, never a panic, and never in an allocation sized by a
// corrupt length rather than by the bytes present. Seeded with the pinned
// frames, bare and framed, and a frame header claiming the largest
// payload.
func FuzzFrames(f *testing.F) {
	for _, c := range pinnedFrames() {
		f.Add(c.frame)
		var b bytes.Buffer
		writeFrame(&b, repStep, c.frame)
		f.Add(b.Bytes())
	}
	f.Add(encodeI64(-7))
	f.Add(encodeString("shard 1: contained panic"))
	f.Add([]byte{repFrame, 0xff, 0xff, 0xff, 0x3f, 1, 2, 3})
	net := testNet()
	var rep stepReply
	// The seed decoder runs on a worker seeded once already, so an input's
	// configuration is read and checked but builds no machine: New's cost
	// is the configuration's, not the bytes'.
	seeded := &worker{spec: initSpec{Lo: 1, Hi: 2}}
	if err := seeded.seed(seedFrame()); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		machine.ReadShardConfig(data)
		seeded.seed(data)
		readFrame(bytes.NewReader(data), nil)
		decodeStep(net, data)
		decodeStepReply(net, data, &rep)
		var s initSpec
		unframe(data, s.state)
		var a activity
		unframe(data, a.state)
		decodeI64(data)
		decodeString(data)
	})
}
