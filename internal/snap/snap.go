// Package snap is the binary codec under the checkpoint/restore subsystem
// (see DESIGN.md, "Checkpoint/restore"): a thin little-endian
// writer/reader pair over io.Writer/io.Reader with sticky error handling,
// so the per-package state encoders read as straight-line field lists
// instead of error-plumbing.
//
// The codec is deliberately primitive — unsigned and signed 64-bit words,
// booleans, length-prefixed byte strings and word slices — because the
// snapshot format is defined entirely by the call sequence of the
// encoders in each component package. Robustness against corrupt or
// truncated input lives here: every length read is bounded by the caller
// (Len), every primitive read fails cleanly at EOF, and the first error
// sticks, so a decoder can run an entire field list and check Err once.
// The Writer buffers: an encoder runs its field list and checks Flush
// once, and the sink sees tens of kilobytes per Write, not eight bytes.
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

// flushAt is the buffered-byte count at which a Writer hands its buffer
// to the sink: large enough that a sink pays its per-Write cost (an
// interface call, a hash block loop, a syscall) once per tens of
// kilobytes instead of once per primitive.
const flushAt = 64 << 10

// Writer serializes primitives into a buffer it owns and hands the
// buffer to an io.Writer in large pieces; Flush delivers the tail, so a
// stream is complete only after Flush. The first write error sticks;
// subsequent calls are no-ops.
type Writer struct {
	w     io.Writer
	err   error
	buf   []byte   // encoded bytes not yet handed to w
	stage []uint64 // reused staging buffer (Stage)
	memo  map[any]any
}

// Stage returns a zeroed, reusable word buffer of length n for
// assembling a bulk block that is immediately passed to RawU64s (which
// copies it out before returning). The buffer is invalidated by the next
// Stage call.
func (w *Writer) Stage(n int) []uint64 {
	if cap(w.stage) < n {
		w.stage = make([]uint64, n)
	}
	s := w.stage[:n]
	clear(s)
	return s
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Memo returns per-stream scratch space for encoders that share work
// across one stream — the writer-side mirror of Reader.Memo, e.g.
// encoding each distinct embedded program once however many thread
// contexts run it.
func (w *Writer) Memo() map[any]any {
	if w.memo == nil {
		w.memo = make(map[any]any)
	}
	return w.memo
}

// Flush hands every buffered byte to the sink and returns the first
// error of the stream (the only way to learn it: until Flush, bytes may
// not have been attempted).
func (w *Writer) Flush() error {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
	return w.err
}

// room flushes when the buffer has reached flushAt, so appends keep the
// buffer near that size however long the stream is.
func (w *Writer) room() {
	if len(w.buf) >= flushAt {
		w.Flush()
	}
}

// U64 writes an unsigned 64-bit word.
func (w *Writer) U64(v uint64) {
	w.room()
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 writes a signed 64-bit word.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as a signed 64-bit word.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.room()
	w.buf = append(w.buf, b)
}

// Len writes a slice length (the counterpart of Reader.Len).
func (w *Writer) Len(n int) { w.U64(uint64(n)) }

// Bytes writes a length-prefixed byte slice. A payload of flushAt bytes
// or more goes to the sink directly instead of through the buffer.
func (w *Writer) Bytes(p []byte) {
	w.Len(len(p))
	if len(p) < flushAt {
		w.room()
		w.buf = append(w.buf, p...)
		return
	}
	if w.Flush() == nil {
		_, w.err = w.w.Write(p)
	}
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Len(len(s))
	w.room()
	w.buf = append(w.buf, s...)
}

// U64s writes a length-prefixed slice of unsigned words.
func (w *Writer) U64s(vs []uint64) {
	w.Len(len(vs))
	w.RawU64s(vs)
}

// RawU64s writes the words of vs without a length prefix (for fixed-size
// arrays whose length is implied by the format). Words are encoded
// straight into the writer's buffer, at most flushAt bytes between
// flushes, so bulk sections (SDRAM chunks, register blocks) are staged
// nowhere else and allocate nothing once the buffer has grown.
func (w *Writer) RawU64s(vs []uint64) {
	for len(vs) > 0 {
		w.room()
		n := min(len(vs), flushAt/8)
		w.buf = slices.Grow(w.buf, n*8)
		at := len(w.buf)
		w.buf = w.buf[:at+n*8]
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(w.buf[at+i*8:], v)
		}
		vs = vs[n:]
	}
}

// Bools writes a length-prefixed boolean slice packed as a bitmask, so a
// register file's scoreboard or a pointer-tag column costs words, not
// bytes-per-bit round trips.
func (w *Writer) Bools(bs []bool) {
	w.Len(len(bs))
	words := w.Stage((len(bs) + 63) / 64)
	for i, b := range bs {
		if b {
			words[i/64] |= 1 << (i % 64)
		}
	}
	w.RawU64s(words)
}

// maxPrealloc caps how many bytes any decode may allocate ahead of the
// data actually arriving from the stream (1 MiB). Larger sections grow in
// chunks as reads succeed, so a corrupt length field costs at most one
// chunk before the truncation is detected — it can never drive a
// multi-gigabyte allocation attempt. Streams whose total size is known
// (Limit) reject oversized lengths before allocating anything.
const maxPrealloc = 1 << 20

// Reader deserializes primitives from an io.Reader. The first error
// (including EOF, reported as an unexpected-EOF decode error) sticks, and
// every subsequent read returns zero values.
type Reader struct {
	r       io.Reader
	err     error
	remain  int64 // bytes left in the stream when known, -1 otherwise
	buf     [8]byte
	scratch []byte   // reused bulk-transfer buffer (RawU64s)
	stage   []uint64 // reused staging buffer (Stage)
	memo    map[string]any
}

// Stage returns a reusable word buffer of length n for receiving a bulk
// block via RawU64s. The buffer is invalidated by the next Stage call;
// contents are unspecified until filled.
func (r *Reader) Stage(n int) []uint64 {
	if cap(r.stage) < n {
		r.stage = make([]uint64, n)
	}
	return r.stage[:n]
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r, remain: -1} }

// Limit declares that at most n more bytes remain in the underlying
// stream. Callers decoding from an in-memory buffer or a file of known
// size should set it: any length field that claims more data than the
// stream can possibly hold then fails descriptively before a single byte
// of it is allocated or read.
func (r *Reader) Limit(n int64) { r.remain = n }

// claim validates that n more bytes of payload are plausible before any
// allocation is sized from a decoded length field.
func (r *Reader) claim(n int64) bool {
	if r.err != nil {
		return false
	}
	if r.remain >= 0 && n > r.remain {
		r.Fail(fmt.Errorf("snap: length %d exceeds the %d bytes remaining in the stream", n, r.remain))
		return false
	}
	return true
}

// Memo returns per-stream scratch space for decoders that share work
// across one stream — e.g. deduplicating identical embedded programs, so
// restoring an n-node machine decodes each handler program once instead
// of n times.
func (r *Reader) Memo() map[string]any {
	if r.memo == nil {
		r.memo = make(map[string]any)
	}
	return r.memo
}

// Err returns the first read error, nil if none.
func (r *Reader) Err() error { return r.err }

// Fail records err (if the reader has not already failed) so decoders can
// surface validation errors through the same sticky channel.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) read(p []byte) bool {
	if r.err != nil {
		return false
	}
	if r.remain >= 0 && int64(len(p)) > r.remain {
		r.err = fmt.Errorf("snap: truncated input (need %d bytes, %d remain)", len(p), r.remain)
		return false
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("snap: truncated input")
		}
		r.err = err
		return false
	}
	if r.remain >= 0 {
		r.remain -= int64(len(p))
	}
	return true
}

// U64 reads an unsigned 64-bit word.
func (r *Reader) U64() uint64 {
	if !r.read(r.buf[:]) {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:])
}

// I64 reads a signed 64-bit word.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int stored as a signed 64-bit word.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads a one-byte boolean.
func (r *Reader) Bool() bool {
	if !r.read(r.buf[:1]) {
		return false
	}
	switch r.buf[0] {
	case 0:
		return false
	case 1:
		return true
	}
	r.Fail(fmt.Errorf("snap: bad boolean byte %#x", r.buf[0]))
	return false
}

// Len reads a slice length and validates it against max, the caller's
// structural bound; a corrupt count fails cleanly here instead of driving
// a huge allocation or a runaway loop downstream.
func (r *Reader) Len(max int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > uint64(max) {
		r.Fail(fmt.Errorf("snap: count %d exceeds bound %d", n, max))
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte slice bounded by max. The
// allocation grows in maxPrealloc chunks as the stream delivers, so a
// corrupt length inside the bound fails at the truncation point instead
// of attempting one huge up-front allocation.
func (r *Reader) Bytes(max int) []byte {
	n := r.Len(max)
	if r.err != nil || n == 0 || !r.claim(int64(n)) {
		return nil
	}
	p := make([]byte, min(n, maxPrealloc))
	if !r.read(p) {
		return nil
	}
	for len(p) < n {
		off := len(p)
		p = append(p, make([]byte, min(n-off, maxPrealloc))...)
		if !r.read(p[off:]) {
			return nil
		}
	}
	return p
}

// String reads a length-prefixed string bounded by max bytes.
func (r *Reader) String(max int) string { return string(r.Bytes(max)) }

// U64s reads a length-prefixed word slice bounded by max entries,
// growing the allocation chunk-wise like Bytes.
func (r *Reader) U64s(max int) []uint64 {
	const chunkWords = maxPrealloc / 8
	n := r.Len(max)
	if r.err != nil || n == 0 || !r.claim(int64(n)*8) {
		return nil
	}
	vs := make([]uint64, min(n, chunkWords))
	r.RawU64s(vs)
	for len(vs) < n && r.err == nil {
		off := len(vs)
		vs = append(vs, make([]uint64, min(n-off, chunkWords))...)
		r.RawU64s(vs[off:])
	}
	if r.err != nil {
		return nil
	}
	return vs
}

// Bools reads a boolean slice written by Writer.Bools, bounded by max
// entries. The backing words stream through the staging buffer one chunk
// at a time, so the pre-read allocation stays capped.
func (r *Reader) Bools(max int) []bool {
	const chunkWords = maxPrealloc / 8
	n := r.Len(max)
	nw := (n + 63) / 64
	if r.err != nil || !r.claim(int64(nw)*8) {
		return nil
	}
	var bs []bool
	for w := 0; w < nw; w += chunkWords {
		words := r.Stage(min(nw-w, chunkWords))
		r.RawU64s(words)
		if r.err != nil {
			return nil
		}
		lim := min(n-w*64, len(words)*64)
		if bs == nil {
			bs = make([]bool, 0, min(n, maxPrealloc))
		}
		for i := 0; i < lim; i++ {
			bs = append(bs, words[i/64]&(1<<(i%64)) != 0)
		}
	}
	return bs
}

// RawU64s fills dst with exactly len(dst) words (no length prefix). The
// staging buffer is reused across calls and never grows past one chunk,
// however large dst is.
func (r *Reader) RawU64s(dst []uint64) {
	const chunkWords = maxPrealloc / 8
	for len(dst) > 0 && r.err == nil {
		c := min(len(dst), chunkWords)
		if cap(r.scratch) < c*8 {
			r.scratch = make([]byte, c*8)
		}
		buf := r.scratch[:c*8]
		if !r.read(buf) {
			return
		}
		for i := 0; i < c; i++ {
			dst[i] = binary.LittleEndian.Uint64(buf[i*8:])
		}
		dst = dst[c:]
	}
}
