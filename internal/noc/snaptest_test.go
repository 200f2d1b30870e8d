package noc

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/snap/snaptest"
)

// TestNetworkFieldRoundTrip mutates every serializable Network field
// and asserts the encoding both sees the change and round-trips it.
// The derived caches (linkBusy, delivery sets, nextWake) are excluded
// by their snap:"derived" tags, matching the snapshot doc comment's
// deliberately-unserialized list.
func TestNetworkFieldRoundTrip(t *testing.T) {
	dims := Coord{X: 2, Y: 1, Z: 1}
	cfg := DefaultConfig()
	n := New(dims, cfg)
	mk := func(seq uint64) *Message {
		return &Message{
			Dst: Coord{X: 1}, DIP: 5, DstAddr: 64,
			Body: []isa.Word{isa.W(9)}, Seq: seq,
			InjectedAt: 1, Hops: 1,
		}
	}
	n.flight[0] = append(n.flight[0], inflight{msg: mk(1), at: Coord{}, readyAt: 4})
	n.arrivals[1][0].push(mk(2))
	n.seq = 3
	n.Injected, n.Delivered, n.TotalHops = 2, 1, 5

	snaptest.Fields(t, n, snaptest.Codec[Network]{
		State: (*Network).State,
		New:   func() *Network { return New(dims, cfg) },
		Mutate: map[string]func(*Network) func(){
			"flight": func(n *Network) func() {
				n.flight[0][0].readyAt ^= 1
				return func() { n.flight[0][0].readyAt ^= 1 }
			},
			"arrivals": func(n *Network) func() {
				n.arrivals[1][0].buf[0].DIP ^= 1
				return func() { n.arrivals[1][0].buf[0].DIP ^= 1 }
			},
		},
	})
}
