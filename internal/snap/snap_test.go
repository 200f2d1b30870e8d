package snap

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(0xdeadbeefcafe)
	w.I64(-42)
	w.Int(7)
	w.Bool(true)
	w.Bool(false)
	w.String("hello")
	w.Bytes([]byte{1, 2, 3})
	w.U64s([]uint64{9, 8, 7})
	w.RawU64s([]uint64{5, 6})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	if got := r.U64(); got != 0xdeadbeefcafe {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != 7 {
		t.Errorf("Int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.String(16); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := r.Bytes(16); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.U64s(16); len(got) != 3 || got[0] != 9 || got[2] != 7 {
		t.Errorf("U64s = %v", got)
	}
	raw := make([]uint64, 2)
	r.RawU64s(raw)
	if raw[0] != 5 || raw[1] != 6 {
		t.Errorf("RawU64s = %v", raw)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(1)
	w.String("payload")
	w.Flush()
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		r.U64()
		r.String(64)
		if err := r.Err(); err == nil {
			t.Fatalf("truncation at %d of %d went undetected", cut, len(full))
		} else if !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("truncation at %d: unexpected error %v", cut, err)
		}
	}
}

func TestBoundsAndStickiness(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Len(1 << 40) // absurd count
	w.U64(123)
	w.Flush()
	r := NewReader(&buf)
	if n := r.Len(1000); n != 0 || r.Err() == nil {
		t.Fatalf("oversized count accepted: n=%d err=%v", n, r.Err())
	}
	first := r.Err()
	// Sticky: later reads keep the first error and return zero values.
	if got := r.U64(); got != 0 || r.Err() != first {
		t.Errorf("error did not stick: got %d, err %v", got, r.Err())
	}

	// Bad boolean byte.
	r2 := NewReader(bytes.NewReader([]byte{7}))
	r2.Bool()
	if r2.Err() == nil || !strings.Contains(r2.Err().Error(), "boolean") {
		t.Errorf("bad boolean byte: err %v", r2.Err())
	}
}

// TestOversizedLengthCapped pins the capped-allocation contract: a
// corrupt length field that passes the caller's structural bound must
// fail descriptively after at most one chunk of reading — it must never
// size an allocation from the corrupt count up front.
func TestOversizedLengthCapped(t *testing.T) {
	// A stream claiming a ~1 GiB payload that isn't there. With a known
	// remaining length the claim is rejected before any read.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Len(1 << 30)
	w.U64(0x1234)
	w.Flush()
	stream := buf.Bytes()

	r := NewReader(bytes.NewReader(stream))
	r.Limit(int64(len(stream)))
	if got := r.Bytes(1 << 31); got != nil || r.Err() == nil {
		t.Fatalf("limited reader: oversized Bytes accepted: %v, err %v", len(got), r.Err())
	}
	if !strings.Contains(r.Err().Error(), "remaining") {
		t.Errorf("limited reader error not descriptive: %v", r.Err())
	}

	// Without a known size, the chunked growth path detects truncation
	// after at most maxPrealloc bytes.
	for _, decode := range map[string]func(*Reader){
		"Bytes": func(r *Reader) { r.Bytes(1 << 31) },
		"U64s":  func(r *Reader) { r.U64s(1 << 31) },
		"Bools": func(r *Reader) { r.Bools(1 << 31) },
	} {
		r := NewReader(bytes.NewReader(stream))
		decode(r)
		if r.Err() == nil || !strings.Contains(r.Err().Error(), "truncated") {
			t.Errorf("unlimited reader: oversized length: err %v", r.Err())
		}
	}
}

// TestLargeSliceRoundTrip exercises the multi-chunk paths (payloads
// larger than maxPrealloc) end to end.
func TestLargeSliceRoundTrip(t *testing.T) {
	const words = maxPrealloc/8 + 1000 // spills into a second chunk
	vs := make([]uint64, words)
	for i := range vs {
		vs[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	bs := make([]bool, 3*64*1024)
	for i := range bs {
		bs[i] = i%3 == 0
	}
	p := make([]byte, maxPrealloc+4096)
	for i := range p {
		p[i] = byte(i)
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64s(vs)
	w.Bools(bs)
	w.Bytes(p)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.Limit(int64(buf.Len()))
	gotVs := r.U64s(words)
	gotBs := r.Bools(len(bs))
	gotP := r.Bytes(len(p))
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		if gotVs[i] != vs[i] {
			t.Fatalf("U64s[%d] = %#x, want %#x", i, gotVs[i], vs[i])
		}
	}
	for i := range bs {
		if gotBs[i] != bs[i] {
			t.Fatalf("Bools[%d] = %v, want %v", i, gotBs[i], bs[i])
		}
	}
	if !bytes.Equal(gotP, p) {
		t.Fatal("Bytes multi-chunk round trip mismatch")
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
