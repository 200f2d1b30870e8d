// Package snap is the binary codec under the checkpoint/restore subsystem
// (see DESIGN.md, "Checkpoint/restore"): one little-endian Codec that
// either encodes onto an io.Writer or decodes a byte slice, with sticky
// error handling. Each component describes its snapshot once, as a
// state walk that hands every field to the codec by address — c.U64(&x)
// writes x when encoding and overwrites it when decoding — so the encode
// and decode field lists are one list and cannot drift apart.
//
// The codec is deliberately primitive — unsigned and signed 64-bit words,
// booleans, length-prefixed byte strings and word slices — because the
// snapshot format is defined entirely by the call sequence of the walks.
// Robustness against corrupt or truncated input lives here: a decoder
// reads a byte slice whose length bounds every count, every length read
// is also bounded by the caller (Len), every primitive read fails cleanly
// at the end of the input, and the first error sticks, so a walk can run
// its entire field list and check Err once. An encoder buffers: a walk
// runs its field list and checks Flush once, and the sink sees tens of
// kilobytes per Write, not eight bytes.
package snap

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// WriteFileAtomic writes a snapshot-style stream to path with
// crash-dump discipline: the stream is produced into a sibling temporary
// file, synced to stable storage, and renamed into place only if every
// write (and Close) succeeded, so a reader never observes a half-written
// snapshot at path — exactly the property `msim -restore` and forensic
// tooling rely on. The containing directory is fsynced after the rename,
// so once WriteFileAtomic returns the snapshot survives power loss, not
// just process death — the durability msimd's checkpoint spool needs
// before acknowledging a session as suspended. Any failure removes the
// temporary file and reports the first error.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry is durable. An
// empty dir means the path was relative to the working directory.
func syncDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// flushAt is the buffered-byte count at which an encoder hands its buffer
// to the sink: large enough that a sink pays its per-Write cost (an
// interface call, a hash block loop, a syscall) once per tens of
// kilobytes instead of once per primitive.
const flushAt = 64 << 10

// Codec is one end of a snapshot stream. An encoder (NewEncoder) writes
// every value a walk hands it into a buffer it owns and passes the buffer
// to the sink in large pieces; Flush delivers the tail, so a stream is
// complete only after Flush. A decoder (NewDecoder) overwrites every value
// it is handed with the next one from its input. Codec is a struct, not
// an interface: a field costs one branch on the direction, not a dynamic
// call. The first error sticks; after it an encoder's bytes are dropped
// and a decoder reads zero values.
type Codec struct {
	reading bool
	err     error
	stage   []uint64 // reused staging buffer (Stage)
	memo    any      // per-stream scratch value (Memo)

	w   io.Writer // encoding: the sink
	buf []byte    // encoding: bytes not yet handed to w

	in []byte // decoding: the unread rest of the input
}

// NewEncoder returns a codec that writes to w.
func NewEncoder(w io.Writer) *Codec { return &Codec{w: w} }

// NewDecoder returns a codec that reads p, a byte slice whose length
// bounds every count: a length field claiming more than the rest of p
// fails before anything is sized from it. Decoded values never alias p.
func NewDecoder(p []byte) *Codec { return &Codec{reading: true, in: p} }

// Reading reports whether c decodes. Walks test it only where the two
// directions differ: building a part a decoder fills, validating what a
// decoder read, re-deriving a cache, or iterating a sparse or unordered
// section.
func (c *Codec) Reading() bool { return c.reading }

// Err returns the first error, nil if none. An encoder's write errors
// appear only once Flush has attempted the bytes.
func (c *Codec) Err() error { return c.err }

// Fail records err (if the codec has not already failed) so walks can
// surface validation errors through the same sticky channel.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Flush hands every buffered byte to an encoder's sink and returns the
// first error of the stream (an encoder's one reliable error report:
// until Flush, bytes may not have been attempted).
func (c *Codec) Flush() error {
	if c.err == nil && len(c.buf) > 0 {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
	return c.err
}

// Stage returns a zeroed, reusable word buffer of length n for assembling
// or receiving a bulk block passed to RawU64s. The buffer is invalidated
// by the next Stage call.
func (c *Codec) Stage(n int) []uint64 {
	if cap(c.stage) < n {
		c.stage = make([]uint64, n)
	}
	s := c.stage[:n]
	clear(s)
	return s
}

// Memo returns per-stream scratch space for walks that share work across
// one stream — e.g. the program table that writes each distinct embedded
// program once however many thread contexts run it. A stream holds one
// value, zero on first use: asking for a different type replaces it.
func Memo[T any](c *Codec) *T {
	m, ok := c.memo.(*T)
	if !ok {
		m = new(T)
		c.memo = m
	}
	return m
}

// Elem returns &(*s)[i] to a walk visiting a list's elements in order
// from 0. A decoder, starting from an empty list, appends a zero element
// first, so a list grows only as far as the stream delivers it.
func Elem[T any](c *Codec, s *[]T, i int) *T {
	if c.reading {
		*s = append(*s, *new(T))
	}
	return &(*s)[i]
}

// Integer walks an integer of any width — typically a named type such as
// a status or a kind — as one 64-bit word: sign-extended on the way out,
// truncated on the way back in (the walk validates the range). Its
// pointer escapes, so walks hand it fields of heap objects only.
func Integer[T ~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64](c *Codec, v *T) {
	if c.reading {
		*v = T(c.get())
	} else {
		c.put(uint64(*v))
	}
}

// U64 walks an unsigned 64-bit word.
func (c *Codec) U64(v *uint64) {
	if c.reading {
		*v = c.get()
	} else {
		c.put(*v)
	}
}

// I64 walks a signed 64-bit word.
func (c *Codec) I64(v *int64) {
	if c.reading {
		*v = int64(c.get())
	} else {
		c.put(uint64(*v))
	}
}

// Int walks an int as a signed 64-bit word.
func (c *Codec) Int(v *int) {
	if c.reading {
		*v = int(c.get())
	} else {
		c.put(uint64(*v))
	}
}

// Bool walks a boolean as one byte.
func (c *Codec) Bool(v *bool) {
	if !c.reading {
		b := byte(0)
		if *v {
			b = 1
		}
		c.room()
		c.buf = append(c.buf, b)
		return
	}
	*v = false
	p := c.next(1, 1)
	if p == nil {
		return
	}
	switch p[0] {
	case 0:
	case 1:
		*v = true
	default:
		c.Fail(fmt.Errorf("snap: bad boolean byte %#x", p[0]))
	}
}

// Len walks a slice length: an encoder writes n and returns it, a decoder
// returns the length it reads after validating it against max, the
// caller's structural bound — a corrupt count fails cleanly here instead
// of driving a huge allocation or a runaway loop downstream.
func (c *Codec) Len(n, max int) int {
	if !c.reading {
		c.put(uint64(n))
		return n
	}
	u := c.get()
	if c.err != nil {
		return 0
	}
	if u > uint64(max) {
		c.Fail(fmt.Errorf("snap: count %d exceeds bound %d", u, max))
		return 0
	}
	return int(u)
}

// Bytes walks a length-prefixed byte slice bounded by max. An encoder
// sends a payload of flushAt bytes or more to the sink directly instead
// of through its buffer; a decoder copies the payload out of its input.
func (c *Codec) Bytes(p *[]byte, max int) {
	n := c.Len(len(*p), max)
	if c.reading {
		*p = nil
		if in := c.next(n, 1); len(in) > 0 {
			*p = slices.Clone(in)
		}
		return
	}
	if n < flushAt {
		c.room()
		c.buf = append(c.buf, *p...)
		return
	}
	if c.Flush() == nil {
		_, c.err = c.w.Write(*p)
	}
}

// String walks a length-prefixed string bounded by max bytes.
func (c *Codec) String(s *string, max int) {
	n := c.Len(len(*s), max)
	if c.reading {
		*s = string(c.next(n, 1))
		return
	}
	c.room()
	c.buf = append(c.buf, *s...)
}

// U64s walks a length-prefixed word slice bounded by max entries.
func (c *Codec) U64s(vs *[]uint64, max int) {
	n := c.Len(len(*vs), max)
	if !c.reading {
		c.RawU64s(*vs)
		return
	}
	*vs = nil
	if in := c.next(n, 8); len(in) > 0 {
		*vs = make([]uint64, n)
		words(*vs, in)
	}
}

// Bools walks a length-prefixed boolean slice bounded by max entries,
// packed as a bitmask, so a register file's scoreboard or a pointer-tag
// column costs words, not bytes-per-bit round trips.
func (c *Codec) Bools(bs *[]bool, max int) {
	n := c.Len(len(*bs), max)
	nw := (n + 63) / 64
	if !c.reading {
		words := c.Stage(nw)
		for i, b := range *bs {
			if b {
				words[i/64] |= 1 << (i % 64)
			}
		}
		c.RawU64s(words)
		return
	}
	*bs = nil
	// Little-endian words: bit i of the mask is bit i%8 of byte i/8.
	if in := c.next(nw, 8); len(in) > 0 {
		*bs = make([]bool, n)
		for i := range *bs {
			(*bs)[i] = in[i/8]&(1<<(i%8)) != 0
		}
	}
}

// RawU64s walks exactly len(vs) words with no length prefix (fixed-size
// arrays whose length the format implies). An encoder writes them
// straight into its buffer, filling it to flushAt bytes between flushes,
// so bulk sections (SDRAM pages, register blocks) are staged nowhere else,
// the buffer never outgrows flushAt however the words are split into
// calls, and nothing is allocated once it has grown; a decoder fills vs
// straight from its input.
func (c *Codec) RawU64s(vs []uint64) {
	if !c.reading {
		for len(vs) > 0 {
			if len(c.buf) > flushAt-8 {
				c.Flush()
			}
			n := min(len(vs), (flushAt-len(c.buf))/8)
			at := len(c.buf)
			if cap(c.buf)-at < n*8 {
				// Double up to flushAt: bulk sections arrive a page at a
				// time, and growing by append's 1.25x would allocate the
				// buffer several times over before it reaches flushAt.
				c.buf = slices.Grow(c.buf, min(max(2*cap(c.buf), at+n*8), flushAt)-at)
			}
			c.buf = c.buf[:at+n*8]
			for i, v := range vs[:n] {
				binary.LittleEndian.PutUint64(c.buf[at+i*8:], v)
			}
			vs = vs[n:]
		}
		return
	}
	if in := c.next(len(vs), 8); in != nil {
		words(vs, in)
	}
}

// words decodes len(vs) little-endian words from in.
func words(vs []uint64, in []byte) {
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint64(in[i*8:])
	}
}

// room flushes when the buffer has reached flushAt, so appends keep the
// buffer near that size however long the stream is.
func (c *Codec) room() {
	if len(c.buf) >= flushAt {
		c.Flush()
	}
}

func (c *Codec) put(v uint64) {
	c.room()
	c.buf = binary.LittleEndian.AppendUint64(c.buf, v)
}

func (c *Codec) get() uint64 {
	if p := c.next(1, 8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// next consumes n items of size bytes from the input and returns them, nil
// once the codec has failed. The count is checked against the rest of the
// input before it is multiplied, so a corrupt count can neither overflow
// the check nor size an allocation.
func (c *Codec) next(n, size int) []byte {
	if c.err == nil && n > len(c.in)/size {
		c.err = &truncated{need: n * size, remaining: len(c.in)}
	}
	if c.err != nil {
		return nil
	}
	p := c.in[:n*size]
	c.in = c.in[n*size:]
	return p
}

// truncated is the error of a read past the end of the input. It formats
// lazily, so failing costs one small allocation whatever the counts.
type truncated struct{ need, remaining int }

func (e *truncated) Error() string {
	return fmt.Sprintf("snap: truncated input (need %d bytes, %d remaining)", e.need, e.remaining)
}
