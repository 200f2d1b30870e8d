// Package sfix is the snapfields fixture: State round-trips through the
// snap codec, so every field must appear on both the encode and decode
// paths or carry a snap:"derived" tag; Forked is also cloned field by
// field, so every field must appear on the clone path too.
package sfix

import "repro/internal/snap"

type State struct {
	A       uint64
	B       uint64
	missing uint64 // want `field repro/internal/chip/sfix.State.missing is not referenced on the snapshot encode or decode path`
	cache   uint64 `snap:"derived,recomputed from A and B on first use"`
}

func (s *State) EncodeState(w *snap.Writer) {
	w.U64(s.A)
	w.U64(s.B)
}

func (s *State) DecodeState(r *snap.Reader) {
	s.A = r.U64()
	s.B = r.U64()
}

// Forked has the third path: its Clone method references A, so the
// struct is held to the clone path and the field Clone forgets is a
// finding. State above has no clone method and is not.
type Forked struct {
	A       uint64
	dropped uint64 // want `field repro/internal/chip/sfix.Forked.dropped is not referenced on the snapshot clone path`
}

func (f *Forked) EncodeState(w *snap.Writer) {
	w.U64(f.A)
	w.U64(f.dropped)
}

func (f *Forked) DecodeState(r *snap.Reader) {
	f.A = r.U64()
	f.dropped = r.U64()
}

func (f *Forked) Clone() *Forked { return &Forked{A: f.A} }

// Copied is decoded by a function that forgets a field which only a
// copy between live objects mentions: that copy is not a snapshot path,
// so the field is missing from the decode path.
type Copied struct {
	A    uint64
	late uint64 // want `field repro/internal/chip/sfix.Copied.late is not referenced on the snapshot decode path`
}

func (c *Copied) EncodeState(w *snap.Writer) {
	w.U64(c.A)
	w.U64(c.late)
}

func DecodeCopied(r *snap.Reader) *Copied { return &Copied{A: r.U64()} }

func (c *Copied) Adopt(src *Copied) { c.A, c.late = src.A, src.late }

// Digest is write-only — it is encoded (into hash inputs) but never
// decoded — so snapfields does not conscript it into coverage and its
// unreferenced field is fine.
type Digest struct {
	Sum   uint64
	count uint64
}

func (d *Digest) EncodeDigest(w *snap.Writer) {
	w.U64(d.Sum)
}
