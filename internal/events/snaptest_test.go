package events

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/snap/snaptest"
)

// TestQueueFieldRoundTrip mutates every serializable Queue field and
// asserts the encoding both sees the change and round-trips it. The
// head index is serialized only implicitly — the encoder drops the
// ring's dead prefix — so its mutation must still shift the stream.
func TestQueueFieldRoundTrip(t *testing.T) {
	q := NewQueue(16)
	if !q.PushWords([]isa.Word{isa.W(11), {Bits: 12, Ptr: true}, isa.W(13)}) {
		t.Fatal("push failed")
	}
	q.Enqueued, q.Dropped, q.HighWater = 3, 1, 3
	snaptest.Fields(t, q, snaptest.Codec[Queue]{
		State: (*Queue).State,
		New:   func() *Queue { return NewQueue(16) },
		Mutate: map[string]func(*Queue) func(){
			"words": func(q *Queue) func() {
				q.words[q.head].Bits ^= 1
				return func() { q.words[q.head].Bits ^= 1 }
			},
		},
	})
}
