package gtlb

import (
	"bytes"
	"testing"

	"repro/internal/snap"
	"repro/internal/snap/snaptest"
)

// TestGTLBFieldRoundTrip mutates every serializable GTLB field and
// asserts the encoding both sees the change and round-trips it —
// the runtime complement to the snapfields static pass.
func TestGTLBFieldRoundTrip(t *testing.T) {
	g := &GTLB{
		capacity: 4,
		resident: []Entry{{
			VirtPage:     7,
			GroupPages:   8,
			Start:        NodeID{X: 1},
			ExtentLog:    [3]int{1, 1, 0},
			PagesPerNode: 2,
		}},
		Hits:   3,
		Misses: 5,
	}
	snaptest.Fields(t, g, snaptest.Codec[GTLB]{
		Encode: func(g *GTLB) []byte { return snaptest.Encode(t, g.EncodeState) },
		Decode: func(data []byte) (*GTLB, error) {
			r := snap.NewReader(bytes.NewReader(data))
			d := DecodeGTLBState(r, nil, 4)
			return d, r.Err()
		},
		Mutate: map[string]func(*GTLB) func(){
			// Entries are validated at decode (power-of-two group and
			// placement sizes), so mutate the unconstrained lookup tag.
			"resident": func(g *GTLB) func() {
				g.resident[0].VirtPage ^= 1
				return func() { g.resident[0].VirtPage ^= 1 }
			},
		},
	})
}
