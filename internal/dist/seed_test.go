package dist

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/machine"
)

// TestSeedRejectsUnbuildableHeader: a worker seeded with a shard frame
// whose header sizes a cache New cannot build returns a descriptive error
// — no contained panic, no out-of-memory that would kill the worker
// process — and builds no machine.
func TestSeedRejectsUnbuildableHeader(t *testing.T) {
	seed := func(cfg machine.Config) []byte {
		m := machine.New(cfg)
		defer m.Close()
		var b bytes.Buffer
		if err := m.EncodeShard(&b, 0, m.NumNodes()); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	half := machine.DefaultConfig()
	half.Chip.Mem.Cache.Lines /= 2
	stream, other := seed(machine.DefaultConfig()), seed(half)
	off := 0
	for stream[off] == other[off] {
		off++
	}
	off &^= 7 // the header word holding the cache's line count
	for _, lines := range []uint64{0, ^uint64(0), 1 << 40} {
		bad := bytes.Clone(stream)
		binary.LittleEndian.PutUint64(bad[off:], lines)
		w := &worker{spec: initSpec{Lo: 0, Hi: 2}}
		err := w.seed(bad)
		if err == nil || !strings.Contains(err.Error(), "cache lines") {
			t.Errorf("cache lines %#x: seed returned %v, want an error naming the cache lines", lines, err)
		}
		if w.m != nil {
			t.Errorf("cache lines %#x: the worker built a machine", lines)
		}
	}
}
