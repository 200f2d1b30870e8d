// Package sfix is the snapfields fixture: State round-trips through the
// snap codec, so every field must be walked — referenced outside the
// codec's direction branches, or inside branches of both directions — or
// carry a snap:"derived" tag; Forked is also cloned field by field, so
// every field must appear on the clone path too.
package sfix

import "repro/internal/snap"

type State struct {
	A       uint64
	B       uint64
	missing uint64 // want `field repro/internal/chip/sfix.State.missing is not referenced on the snapshot walk`
	checked uint64 // want `field repro/internal/chip/sfix.State.checked is not referenced on the snapshot walk`
	cache   uint64 `snap:"derived,recomputed from A and B on first use"`
}

// State mentions checked only when decoding: validation walks nothing.
func (s *State) State(c *snap.Codec) {
	c.U64(&s.A)
	c.U64(&s.B)
	if c.Reading() && s.A > s.checked {
		s.cache = s.A + s.B
	}
}

// Forked has the second path: its Clone method references A, so the
// struct is held to the clone path and the field Clone forgets is a
// finding. State above has no clone method and is not.
type Forked struct {
	A       uint64
	dropped uint64 // want `field repro/internal/chip/sfix.Forked.dropped is not referenced on the fork clone path`
}

func (f *Forked) State(c *snap.Codec) {
	c.U64(&f.A)
	c.U64(&f.dropped)
}

func (f *Forked) Clone() *Forked { return &Forked{A: f.A} }

// Keyed travels as a key list the encoder builds and the decoder refills
// from: set is mentioned in both directions and is walked, order only by
// the encoder, so a decoder would drop it.
type Keyed struct {
	set   map[uint64]bool
	order []uint64 // want `field repro/internal/chip/sfix.Keyed.order is not referenced on the snapshot walk`
}

func (k *Keyed) State(c *snap.Codec) {
	var keys []uint64
	if !c.Reading() {
		for _, key := range k.order {
			if k.set[key] {
				keys = append(keys, key)
			}
		}
	}
	c.U64s(&keys, 64)
	if c.Reading() {
		for _, key := range keys {
			k.set[key] = true
		}
	}
}
