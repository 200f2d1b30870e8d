package events

// Checkpoint support (DESIGN.md, "Checkpoint/restore"): State walks the
// live queue contents and statistics — into a queue of the configured
// capacity from NewQueue when decoding — and Clone copies the same fields
// for machine.Fork.

import (
	"slices"

	"repro/internal/isa"
	"repro/internal/snap"
)

// maxQueueWords bounds decoded queue lengths against corrupt counts.
const maxQueueWords = 1 << 24

// State walks the queued words (from the head, so the dead prefix of the
// ring is not serialized) and the queue statistics. A decoded queue
// starts at the encoded queue's head, so its own head is 0.
func (q *Queue) State(c *snap.Codec) {
	live := q.words[q.head:]
	isa.Words(c, &live, maxQueueWords)
	if c.Reading() {
		q.words, q.head = live, 0
	}
	c.U64(&q.Enqueued)
	c.U64(&q.Dropped)
	c.Int(&q.HighWater)
}

// Clone returns an independent queue with q's live contents, capacity
// and statistics (like a restore, it drops the ring's dead prefix).
func (q *Queue) Clone() *Queue {
	return &Queue{
		words:     slices.Clone(q.words[q.head:]),
		cap:       q.cap,
		Enqueued:  q.Enqueued,
		Dropped:   q.Dropped,
		HighWater: q.HighWater,
	}
}
