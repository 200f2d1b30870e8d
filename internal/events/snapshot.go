package events

// Checkpoint support (DESIGN.md, "Checkpoint/restore"): EncodeState
// streams the live queue contents and statistics, DecodeQueueState builds
// a queue of the configured capacity from the stream, and Clone copies
// the same fields for machine.Fork.

import (
	"slices"

	"repro/internal/isa"
	"repro/internal/snap"
)

// maxQueueWords bounds decoded queue lengths against corrupt counts.
const maxQueueWords = 1 << 24

// EncodeState writes the queued words (from the head, so the dead prefix
// of the ring is not serialized) and the queue statistics.
func (q *Queue) EncodeState(w *snap.Writer) {
	isa.EncodeWords(w, q.words[q.head:])
	w.U64(q.Enqueued)
	w.U64(q.Dropped)
	w.Int(q.HighWater)
}

// DecodeQueueState reads a queue written by EncodeState; capacity is the
// bound the chip configuration gives this queue (NewQueue's argument).
// The stream starts at the encoded queue's head, so the new one's is 0.
func DecodeQueueState(r *snap.Reader, capacity int) *Queue {
	q := &Queue{words: isa.DecodeWords(r, maxQueueWords), head: 0, cap: capacity}
	q.Enqueued = r.U64()
	q.Dropped = r.U64()
	q.HighWater = r.Int()
	return q
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
