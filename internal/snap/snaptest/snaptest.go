// Package snaptest is the runtime complement to the snapfields static
// pass (DESIGN.md, "Static analysis"): where snapfields proves every
// serializable field is *referenced* in its type's state walk, snaptest
// proves the reference actually carries the value. Fields mutates each
// non-derived field of a snapshot-covered struct in place and asserts
// that (1) the mutation is visible in the encoded stream — the walk did
// not silently drop the field — and (2) decoding the mutated stream and
// re-encoding reproduces it byte for byte — the walk did not silently
// discard it on the way in. Both directions run the one walk.
//
// Unexported fields are reached with reflect + unsafe, so packages use
// internal test files only to supply custom mutators for fields whose
// values the decoder validates (indices, capacities, nested structs).
package snaptest

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/snap"
)

// Codec adapts one snapshot-covered struct to the field check.
type Codec[T any] struct {
	// State is the type's state walk, e.g. (*RegFile).State.
	State func(*T, *snap.Codec)
	// New returns the shell a decoder fills: what the type's decoder
	// builds before it walks the stream.
	New func() *T
	// Mutate overrides the default bit-flip for named fields; a mutator
	// changes the field to a different valid value and returns the undo.
	Mutate map[string]func(*T) func()
}

// Encode runs walk against a fresh in-memory encoder and returns the
// bytes.
func Encode(t *testing.T, walk func(*snap.Codec)) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := snap.NewEncoder(&buf)
	walk(c)
	if err := c.Flush(); err != nil {
		t.Fatalf("snaptest: encode: %v", err)
	}
	return buf.Bytes()
}

func (c Codec[T]) encode(t *testing.T, v *T) []byte {
	return Encode(t, func(sc *snap.Codec) { c.State(v, sc) })
}

// decode fills a new shell from data and returns the codec error, so the
// check can tell "field dropped" from "mutator produced a value the
// decoder rejects".
func (c Codec[T]) decode(data []byte) (*T, error) {
	v := c.New()
	sc := snap.NewDecoder(data)
	c.State(v, sc)
	return v, sc.Err()
}

// Fields checks every serializable field of *v, as described in the
// package comment.
func Fields[T any](t *testing.T, v *T, c Codec[T]) {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	rt := rv.Type()
	if rt.Kind() != reflect.Struct {
		t.Fatalf("snaptest: %s is not a struct", rt)
	}
	base := c.encode(t, v)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if tag := f.Tag.Get("snap"); tag == "derived" || strings.HasPrefix(tag, "derived,") {
			continue
		}
		var undo func()
		if mut, ok := c.Mutate[f.Name]; ok {
			undo = mut(v)
		} else {
			u, err := defaultMutate(settable(rv.Field(i)))
			if err != nil {
				t.Errorf("snaptest: field %s.%s: %v — provide a Mutate entry", rt.Name(), f.Name, err)
				continue
			}
			undo = u
		}

		mutated := c.encode(t, v)
		if bytes.Equal(mutated, base) {
			t.Errorf("snaptest: field %s.%s: mutation is invisible to the encoder — the snapshot drops this field", rt.Name(), f.Name)
			undo()
			continue
		}
		restored, err := c.decode(mutated)
		if err != nil {
			t.Errorf("snaptest: field %s.%s: decoding the mutated snapshot failed: %v — the mutator must produce a valid value", rt.Name(), f.Name, err)
			undo()
			continue
		}
		if again := c.encode(t, restored); !bytes.Equal(again, mutated) {
			t.Errorf("snaptest: field %s.%s: re-encode after decode differs — the field does not round-trip", rt.Name(), f.Name)
		}
		undo()
		if now := c.encode(t, v); !bytes.Equal(now, base) {
			t.Fatalf("snaptest: field %s.%s: undo did not restore the baseline encoding", rt.Name(), f.Name)
		}
	}
}

// settable returns rv as a settable value, using unsafe for unexported
// fields (rv must be addressable, which Fields guarantees by requiring
// a pointer to the struct).
func settable(rv reflect.Value) reflect.Value {
	if rv.CanSet() {
		return rv
	}
	return reflect.NewAt(rv.Type(), unsafe.Pointer(rv.UnsafeAddr())).Elem()
}

// defaultMutate applies a self-evident valid mutation for scalar kinds
// and non-empty scalar slices, returning the undo.
func defaultMutate(fv reflect.Value) (func(), error) {
	switch fv.Kind() {
	case reflect.Bool:
		old := fv.Bool()
		fv.SetBool(!old)
		return func() { fv.SetBool(old) }, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		old := fv.Int()
		fv.SetInt(old ^ 1)
		return func() { fv.SetInt(old) }, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		old := fv.Uint()
		fv.SetUint(old ^ 1)
		return func() { fv.SetUint(old) }, nil
	case reflect.String:
		old := fv.String()
		fv.SetString(old + "~")
		return func() { fv.SetString(old) }, nil
	case reflect.Slice:
		if fv.Len() == 0 {
			return nil, fmt.Errorf("slice is empty; populate it or mutate it explicitly")
		}
		return defaultMutate(settable(fv.Index(0)))
	default:
		return nil, fmt.Errorf("kind %s has no default mutation", fv.Kind())
	}
}
