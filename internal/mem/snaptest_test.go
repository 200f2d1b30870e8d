package mem

import (
	"testing"

	"repro/internal/snap/snaptest"
)

// TestLTLBFieldRoundTrip mutates every serializable LTLB field and
// asserts the encoding both sees the change and round-trips it.
func TestLTLBFieldRoundTrip(t *testing.T) {
	lt := NewLTLB(2)
	lt.entries = []PTE{
		{VPN: 3, PPN: 9, Valid: true, Status: [2]uint64{1, 2}},
		{VPN: 4, PPN: 10},
	}
	lt.head = 1
	lt.Hits, lt.Misses = 2, 7
	snaptest.Fields(t, lt, snaptest.Codec[LTLB]{
		State: (*LTLB).State,
		New:   func() *LTLB { return NewLTLB(2) },
		Mutate: map[string]func(*LTLB) func(){
			"entries": func(lt *LTLB) func() {
				lt.entries[0].VPN ^= 1
				return func() { lt.entries[0].VPN ^= 1 }
			},
			// The order is checked to be a rotation of the slots at
			// decode; the other head of a full two-slot LTLB is one.
			"head": func(lt *LTLB) func() {
				lt.head ^= 1
				return func() { lt.head ^= 1 }
			},
		},
	})
}
