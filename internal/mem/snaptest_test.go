package mem

import (
	"testing"

	"repro/internal/snap/snaptest"
)

// TestLTLBFieldRoundTrip mutates every serializable LTLB field and
// asserts the encoding both sees the change and round-trips it.
func TestLTLBFieldRoundTrip(t *testing.T) {
	lt := NewLTLB(4)
	lt.entries = []PTE{
		{VPN: 3, PPN: 9, Valid: true, Status: [2]uint64{1, 2}},
		{VPN: 4, PPN: 10},
	}
	lt.order = []int{1, 0}
	lt.Hits, lt.Misses = 2, 7
	snaptest.Fields(t, lt, snaptest.Codec[LTLB]{
		State: (*LTLB).State,
		New:   func() *LTLB { return NewLTLB(4) },
		Mutate: map[string]func(*LTLB) func(){
			"entries": func(lt *LTLB) func() {
				lt.entries[0].VPN ^= 1
				return func() { lt.entries[0].VPN ^= 1 }
			},
			// Order slots are range-checked at decode; swapping two
			// valid slots stays inside the checked space.
			"order": func(lt *LTLB) func() {
				lt.order[0], lt.order[1] = lt.order[1], lt.order[0]
				return func() { lt.order[0], lt.order[1] = lt.order[1], lt.order[0] }
			},
		},
	})
}
