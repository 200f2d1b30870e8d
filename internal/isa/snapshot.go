package isa

// Checkpoint support (DESIGN.md, "Checkpoint/restore"): packed word-slice
// encoding shared by every component that serializes tagged words. A
// slice of Words is written as its length, all Bits in one block, then
// the pointer tags as a bitmask — three bulk transfers instead of two
// tiny reads per word, which is what keeps restore (and Fork) cheap.

import "repro/internal/snap"

// Words walks *ws in the packed block form, bounded by max entries. Both
// blocks go through the codec's staging buffer: an encoder assembles each
// one there (RawU64s copies it out before returning, so the two uses
// cannot overlap), a decoder copies the bits out of it before the buffer
// is reused for the pointer mask.
func Words(c *snap.Codec, ws *[]Word, max int) {
	n := c.Len(len(*ws), max)
	if !c.Reading() {
		bits := c.Stage(n)
		for i, w := range *ws {
			bits[i] = w.Bits
		}
		c.RawU64s(bits)
		ptrs := c.Stage((n + 63) / 64)
		for i, w := range *ws {
			if w.Ptr {
				ptrs[i/64] |= 1 << (i % 64)
			}
		}
		c.RawU64s(ptrs)
		return
	}
	*ws = nil
	if c.Err() != nil || n == 0 {
		return
	}
	s := make([]Word, n)
	bits := c.Stage(n)
	c.RawU64s(bits)
	if c.Err() != nil {
		return
	}
	for i := range s {
		s[i].Bits = bits[i]
	}
	ptrs := c.Stage((n + 63) / 64)
	c.RawU64s(ptrs)
	if c.Err() != nil {
		return
	}
	for i := range s {
		s[i].Ptr = ptrs[i/64]&(1<<(i%64)) != 0
	}
	*ws = s
}
