package chip

import (
	"testing"

	"repro/internal/gtlb"
	"repro/internal/isa"
	"repro/internal/noc"
	"repro/internal/snap/snaptest"
)

// TestChipFieldRoundTrip mutates every serializable Chip field and
// asserts the chip's state walk both sees the change and round-trips it.
// Mutations stay inside what decoding validates: register slots and
// classes, GCC indices, and memory requests with no response in flight.
func TestChipFieldRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	net := noc.New(noc.Coord{X: 2, Y: 1, Z: 1}, cfg.Net)
	gdt := &gtlb.Table{}
	ch := New(cfg, noc.Coord{}, 0, net, gdt)
	msg := func(dip uint64) *noc.Message {
		return &noc.Message{Src: noc.Coord{}, Dst: noc.Coord{X: 1}, DIP: dip, Body: []isa.Word{isa.W(dip)}}
	}
	ch.Cycle, ch.InstsIssued, ch.OpsIssued, ch.SendsBlocked, ch.MsgsReturned = 40, 12, 20, 3, 1
	ch.credits, ch.memSeq = 14, 6
	ch.evq[2].PushWords([]isa.Word{isa.W(5)})
	ch.pendingRegs = []pendingReg{{at: 44, vthread: 1, cl: 2, reg: isa.Int(4), w: isa.W(8)}}
	ch.pendingGCC = []pendingGCC{{at: 45, idx: 3, w: isa.W(1)}}
	ch.memReqs = []memReq{{token: 5, meta: reqMeta{vthread: 2, cl: 1, dst: isa.Int(6), data: isa.W(3)}}}
	ch.resends = []resend{{msg: msg(9), at: 60}}
	ch.outbox = []*noc.Message{msg(10)}
	ch.validDIPs[7] = true
	ch.directory[64] = []int{1}
	ch.Console.buf = []byte("hi")

	// toggle flips the low bit of *v, returning the undo.
	toggle := func(v *uint64) func() {
		*v ^= 1
		return func() { *v ^= 1 }
	}
	snaptest.Fields(t, ch, snaptest.Codec[Chip]{
		State: (*Chip).State,
		New:   func() *Chip { return shell(cfg, noc.Coord{}, 0, net, gdt) },
		Mutate: map[string]func(*Chip) func(){
			"Clusters": func(ch *Chip) func() {
				th := ch.Clusters[3].Threads[1]
				th.StallCycles ^= 1
				return func() { th.StallCycles ^= 1 }
			},
			"Mem":         func(ch *Chip) func() { return toggle(&ch.Mem.SyncFaults) },
			"GTLB":        func(ch *Chip) func() { return toggle(&ch.GTLB.Hits) },
			"evq":         func(ch *Chip) func() { return toggle(&ch.evq[2].Enqueued) },
			"msgq":        func(ch *Chip) func() { return toggle(&ch.msgq[1].Dropped) },
			"excq":        func(ch *Chip) func() { return toggle(&ch.excq.Enqueued) },
			"pendingRegs": func(ch *Chip) func() { return toggle(&ch.pendingRegs[0].w.Bits) },
			"pendingGCC":  func(ch *Chip) func() { return toggle(&ch.pendingGCC[0].w.Bits) },
			"memReqs":     func(ch *Chip) func() { return toggle(&ch.memReqs[0].token) },
			"resends":     func(ch *Chip) func() { return toggle(&ch.resends[0].msg.DstAddr) },
			"outbox":      func(ch *Chip) func() { return toggle(&ch.outbox[0].Seq) },
			"validDIPs": func(ch *Chip) func() {
				ch.validDIPs[8] = true
				return func() { delete(ch.validDIPs, 8) }
			},
			"directory": func(ch *Chip) func() {
				ch.directory[64][0] ^= 1
				return func() { ch.directory[64][0] ^= 1 }
			},
			"Console": func(ch *Chip) func() {
				ch.Console.buf[0] ^= 1
				return func() { ch.Console.buf[0] ^= 1 }
			},
		},
	})
}
