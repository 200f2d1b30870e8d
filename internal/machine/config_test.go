package machine_test

// Configuration bounds: a shard frame's header is the one place a
// machine's configuration arrives from outside the process (the dist
// worker's first seed builds a machine from it), so every field that
// sizes an allocation in New, or that the model divides by, must be
// refused there with an error naming it — never reach New as a panic or a
// fatal out-of-memory.

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/noc"
)

// frameFresh is the shard frame of node 0 of a fresh machine.
func frameFresh(t *testing.T, cfg machine.Config) []byte {
	t.Helper()
	m := machine.New(cfg)
	defer m.Close()
	var b bytes.Buffer
	if err := m.EncodeShard(&b, 0, 1); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// headerWord returns the offset of the 8-byte header word edit changes:
// the first word where the shard frames of a fresh default machine and of
// one configured by edit differ.
func headerWord(t *testing.T, edit func(*machine.Config)) int {
	t.Helper()
	alt := machine.DefaultConfig()
	edit(&alt)
	a, b := frameFresh(t, machine.DefaultConfig()), frameFresh(t, alt)
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i &^ 7
		}
	}
	t.Fatal("the edit does not change the stream")
	return 0
}

// patchWord returns a copy of stream with the word at off set to v.
func patchWord(stream []byte, off int, v uint64) []byte {
	out := bytes.Clone(stream)
	binary.LittleEndian.PutUint64(out[off:], v)
	return out
}

// boundedFields are the header words check bounds, with an edit that
// locates each, the text its error carries, and whether 0 is a valid
// value (an unbounded queue; a node that never sends).
var boundedFields = []struct {
	name   string
	edit   func(*machine.Config)
	zeroOK bool
}{
	{"mesh", func(c *machine.Config) { c.Dims.X = 3 }, false},
	{"mesh", func(c *machine.Config) { c.Dims.Y = 2 }, false},
	{"mesh", func(c *machine.Config) { c.Dims.Z = 2 }, false},
	{"SDRAM words", func(c *machine.Config) { c.Chip.Mem.SDRAM.Words *= 2 }, false},
	{"SDRAM row words", func(c *machine.Config) { c.Chip.Mem.SDRAM.RowWords *= 2 }, false},
	{"cache lines", func(c *machine.Config) { c.Chip.Mem.Cache.Lines /= 2 }, false},
	{"LTLB entries", func(c *machine.Config) { c.Chip.Mem.LTLBEntries /= 2 }, false},
	{"message queue words", func(c *machine.Config) { c.Chip.MsgQueueCap /= 2 }, true},
	{"event queue words", func(c *machine.Config) { c.Chip.EventQueueCap = 8 }, true},
	{"send credits", func(c *machine.Config) { c.Chip.SendCredits /= 2 }, true},
}

// TestReadShardConfigBounds: in a shard frame's header, each bounded
// word set to 0, −1 or 2^40 is an error from ReadShardConfig naming the
// field (0 only where it is not a meaningful value, and then the header
// builds a machine that adopts the frame), and so are a mesh within the
// per-axis range but over the node bound and an SDRAM too small for the
// LPT.
func TestReadShardConfigBounds(t *testing.T) {
	stream := frameFresh(t, machine.DefaultConfig())
	for _, f := range boundedFields {
		off := headerWord(t, f.edit)
		for _, v := range []uint64{0, ^uint64(0), 1 << 40} {
			patched := patchWord(stream, off, v)
			cfg, err := machine.ReadShardConfig(patched)
			if v == 0 && f.zeroOK {
				if err != nil {
					t.Errorf("%s = 0: %v, want a buildable machine", f.name, err)
					continue
				}
				m := machine.New(cfg)
				if _, err := m.DecodeShard(patched, 0, 1); err != nil {
					t.Errorf("%s = 0: decode: %v", f.name, err)
				}
				m.Close()
				continue
			}
			if err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("header word at byte %d = %#x: error %v, want one naming %s", off, v, err, f.name)
			}
		}
	}

	x, y := headerWord(t, func(c *machine.Config) { c.Dims.X = 3 }), headerWord(t, func(c *machine.Config) { c.Dims.Y = 2 })
	wide := patchWord(patchWord(stream, x, machine.MaxAxis), y, 2)
	if _, err := machine.ReadShardConfig(wide); err == nil || !strings.Contains(err.Error(), "in all") {
		t.Errorf("a %dx2 mesh: error %v, want the node bound", machine.MaxAxis, err)
	}
	words := headerWord(t, func(c *machine.Config) { c.Chip.Mem.SDRAM.Words *= 2 })
	small := patchWord(stream, words, 1<<12)
	if _, err := machine.ReadShardConfig(small); err == nil || !strings.Contains(err.Error(), "LPT") {
		t.Errorf("4 KW of SDRAM: error %v, want the LPT not fitting", err)
	}
}

// TestNewAllocationPin: booting a mesh costs what its nodes have touched
// — the network, the chips, one SDRAM page each for the page allocator's
// counter — not every node's full cache line array or a 64-KByte SDRAM
// chunk per node; and a 4x4x2 mesh boots in a few dozen allocations per
// node (each cluster's thread contexts and register words are carved
// from three allocations).
func TestNewAllocationPin(t *testing.T) {
	small := machine.DefaultConfig()
	small.Dims = noc.Coord{X: 4, Y: 4, Z: 2}
	const allocBound = 1600
	if n := testing.AllocsPerRun(4, func() { machine.New(small).Close() }); n > allocBound {
		t.Errorf("machine.New of a %v mesh makes %.0f allocations, want <= %d", small.Dims, n, allocBound)
	} else {
		t.Logf("machine.New of a %v mesh: %.0f allocations", small.Dims, n)
	}
	for _, tc := range []struct {
		dims  noc.Coord
		bound uint64
	}{
		{noc.Coord{X: 4, Y: 4, Z: 2}, 1_200_000},
		{noc.Coord{X: 8, Y: 8, Z: 2}, 4_000_000},
	} {
		cfg := machine.DefaultConfig()
		cfg.Dims = tc.dims
		var a, b runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&a)
		const runs = 4
		for range runs {
			machine.New(cfg).Close()
		}
		runtime.ReadMemStats(&b)
		n := (b.TotalAlloc - a.TotalAlloc) / runs
		t.Logf("machine.New of a %v mesh: %d bytes", tc.dims, n)
		if n > tc.bound {
			t.Errorf("machine.New of a %v mesh allocates %d bytes, want <= %d", tc.dims, n, tc.bound)
		}
	}
}
