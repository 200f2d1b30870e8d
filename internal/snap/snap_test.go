package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// record is a walk over one of every primitive.
type record struct {
	u     uint64
	i     int64
	n     int
	t, f  bool
	s     string
	b     []byte
	us    []uint64
	raw   [2]uint64
	kind  uint8
	delta int8
}

func (r *record) state(c *Codec) {
	c.U64(&r.u)
	c.I64(&r.i)
	c.Int(&r.n)
	c.Bool(&r.t)
	c.Bool(&r.f)
	c.String(&r.s, 16)
	c.Bytes(&r.b, 16)
	c.U64s(&r.us, 16)
	c.RawU64s(r.raw[:])
	Integer(c, &r.kind)
	Integer(c, &r.delta)
}

// encode runs walk against a fresh encoder and returns the bytes.
func encode(t *testing.T, walk func(*Codec)) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := NewEncoder(&buf)
	walk(c)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	want := record{
		u: 0xdeadbeefcafe, i: -42, n: 7, t: true, s: "hello", b: []byte{1, 2, 3},
		us: []uint64{9, 8, 7}, raw: [2]uint64{5, 6}, kind: 200, delta: -3,
	}
	stream := encode(t, want.state)
	// One word per integer, whatever its width: a narrow signed value is
	// sign-extended on the wire.
	if got := binary.LittleEndian.Uint64(stream[len(stream)-8:]); got != 1<<64-3 {
		t.Errorf("int8 -3 encoded as %#x", got)
	}
	var got record
	c := NewDecoder(stream)
	got.state(c)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}
	if again := encode(t, got.state); !bytes.Equal(again, stream) {
		t.Error("re-encoding the decoded record changed the stream")
	}
}

func TestTruncation(t *testing.T) {
	walk := func(c *Codec) {
		u, s := uint64(1), "payload"
		c.U64(&u)
		c.String(&s, 64)
	}
	full := encode(t, walk)
	for cut := 0; cut < len(full); cut++ {
		c := NewDecoder(full[:cut])
		walk(c)
		if err := c.Err(); err == nil {
			t.Fatalf("truncation at %d of %d went undetected", cut, len(full))
		} else if !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("truncation at %d: unexpected error %v", cut, err)
		}
	}
}

func TestBoundsAndStickiness(t *testing.T) {
	stream := encode(t, func(c *Codec) {
		c.Len(1<<40, 0) // absurd count
		u := uint64(123)
		c.U64(&u)
	})
	c := NewDecoder(stream)
	if n := c.Len(0, 1000); n != 0 || c.Err() == nil {
		t.Fatalf("oversized count accepted: n=%d err=%v", n, c.Err())
	}
	first := c.Err()
	// Sticky: later reads keep the first error and return zero values.
	got := uint64(99)
	if c.U64(&got); got != 0 || c.Err() != first {
		t.Errorf("error did not stick: got %d, err %v", got, c.Err())
	}

	// Bad boolean byte.
	c2 := NewDecoder([]byte{7})
	var b bool
	c2.Bool(&b)
	if c2.Err() == nil || !strings.Contains(c2.Err().Error(), "boolean") {
		t.Errorf("bad boolean byte: err %v", c2.Err())
	}
}

// TestOversizedLengthCapped pins the bounded-allocation contract: a
// corrupt length field that passes the caller's structural bound fails
// descriptively against the rest of the input before anything is sized
// from it.
func TestOversizedLengthCapped(t *testing.T) {
	// A stream claiming a ~1 GiB payload that isn't there.
	stream := encode(t, func(c *Codec) {
		c.Len(1<<30, 0)
		u := uint64(0x1234)
		c.U64(&u)
	})
	// The first decoder fails on its first word, before any count is read:
	// the codec and its error are all it allocates, and each oversized
	// decode must allocate no more.
	decoders := []struct {
		name   string
		decode func(*Codec)
	}{
		{"U64", func(c *Codec) { var u uint64; c.U64(&u) }},
		{"Bytes", func(c *Codec) { var p []byte; c.Bytes(&p, 1<<31) }},
		{"U64s", func(c *Codec) { var vs []uint64; c.U64s(&vs, 1<<31) }},
		{"Bools", func(c *Codec) { var bs []bool; c.Bools(&bs, 1<<31) }},
	}
	baseline := testing.AllocsPerRun(10, func() { decoders[0].decode(NewDecoder(nil)) })
	for _, d := range decoders[1:] {
		c := NewDecoder(stream)
		d.decode(c)
		if c.Err() == nil || !strings.Contains(c.Err().Error(), "remaining") {
			t.Errorf("%s: oversized length: err %v", d.name, c.Err())
		}
		if allocs := testing.AllocsPerRun(10, func() { d.decode(NewDecoder(stream)) }); allocs > baseline {
			t.Errorf("%s: oversized length made %v allocations, a failed word read %v", d.name, allocs, baseline)
		}
	}
}

// TestDecodedValuesNeverAlias: every decoded slice and string is a copy,
// so overwriting the input (as dist does when it reuses a connection's
// read buffer for the next frame) leaves what was decoded unchanged.
func TestDecodedValuesNeverAlias(t *testing.T) {
	want := record{s: "hello", b: []byte{1, 2, 3}, us: []uint64{9, 8, 7}}
	bs := []bool{true, false, true}
	walk := func(r *record, bs *[]bool) func(*Codec) {
		return func(c *Codec) {
			r.state(c)
			c.Bools(bs, 16)
		}
	}
	stream := encode(t, walk(&want, &bs))
	var got record
	var gotBs []bool
	c := NewDecoder(stream)
	walk(&got, &gotBs)(c)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range stream {
		stream[i] = 0xff
	}
	if got.s != want.s || !bytes.Equal(got.b, want.b) || !slices.Equal(got.us, want.us) || !slices.Equal(gotBs, bs) {
		t.Errorf("overwriting the input changed decoded values: %+v %v", got, gotBs)
	}
}

// TestLargeSliceRoundTrip round-trips slices larger than a megabyte.
func TestLargeSliceRoundTrip(t *testing.T) {
	const words = 1<<17 + 1000
	vs := make([]uint64, words)
	for i := range vs {
		vs[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	bs := make([]bool, 3*64*1024)
	for i := range bs {
		bs[i] = i%3 == 0
	}
	p := make([]byte, 1<<20+4096)
	for i := range p {
		p[i] = byte(i)
	}

	stream := encode(t, func(c *Codec) {
		c.U64s(&vs, 0)
		c.Bools(&bs, 0)
		c.Bytes(&p, 0)
	})
	c := NewDecoder(stream)
	var gotVs []uint64
	var gotBs []bool
	var gotP []byte
	c.U64s(&gotVs, words)
	c.Bools(&gotBs, len(bs))
	c.Bytes(&gotP, len(p))
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotVs, vs) {
		t.Fatal("U64s round trip mismatch")
	}
	if !slices.Equal(gotBs, bs) {
		t.Fatal("Bools round trip mismatch")
	}
	if !bytes.Equal(gotP, p) {
		t.Fatal("Bytes round trip mismatch")
	}
}

// TestMemoAndElem: a stream's memo holds one value, replaced when a walk
// asks for another type; Elem grows a decoded list one element at a time
// and leaves an encoded one alone.
func TestMemoAndElem(t *testing.T) {
	c := NewEncoder(io.Discard)
	*Memo[int](c) = 1
	if *Memo[int](c) != 1 {
		t.Error("memo lost its value")
	}
	if *Memo[string](c) != "" || *Memo[int](c) != 0 {
		t.Error("a memo of another type did not replace the value")
	}

	list := []int{4, 5}
	if p := Elem(c, &list, 1); p != &list[1] || len(list) != 2 {
		t.Error("encoding Elem did not return the element in place")
	}
	d := NewDecoder(nil)
	var got []int
	for i := range 3 {
		*Elem(d, &got, i) = i + 1
	}
	if !slices.Equal(got, []int{1, 2, 3}) {
		t.Errorf("decoding Elem built %v", got)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")

	// A failing producer must leave nothing behind — not the target, not
	// the temporary.
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial")); err != nil {
			return err
		}
		return boom
	})
	if err != boom {
		t.Fatalf("failing write: err = %v, want %v", err, boom)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed write left %s behind (stat err %v)", path, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("failed write left %d stray files (first: %s)", len(ents), ents[0].Name())
	}

	// A successful write replaces any prior content in one step and the
	// temporary is gone.
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new contents"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new contents" {
		t.Fatalf("read back %q", got)
	}
	ents, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("successful write left %d files in dir, want 1", len(ents))
	}

	// Relative path: the directory component is empty, syncDir falls back
	// to ".".
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	err = WriteFileAtomic("rel.ckpt", func(w io.Writer) error {
		_, err := w.Write([]byte("rel"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile("rel.ckpt"); err != nil || string(got) != "rel" {
		t.Fatalf("relative write: %q, %v", got, err)
	}
}
