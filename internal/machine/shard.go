package machine

// Distributed-engine hooks (see internal/dist and DESIGN.md "The
// distributed engine"): a shard worker process owns a contiguous node
// range [lo, hi) of the mesh and steps exactly those chips, while the
// coordinator owns the authoritative network, the clock, and the
// checkpoint/digest story. Two things cross the process boundary in
// machine terms: per-range chip state (the partial-machine wire frames
// below, which seed each worker with its own range and bring the range
// back to the coordinator at checkpoints and leg ends), and the per-cycle
// activity aggregates the coordinator's run-loop head needs, computed
// here with the same definitions as the in-process loop so the two
// engines share one completion story.

import (
	"fmt"
	"io"

	"repro/internal/chip"
	"repro/internal/gtlb"
	"repro/internal/noc"
	"repro/internal/snap"
)

// Magic words bracketing a shard frame ("MSHARDFR" / "MSHRDEND").
const (
	shardFrameMagic   = 0x524644524148534d // "MSHARDFR"
	shardFrameTrailer = 0x444e45445248534d // "MSHRDEND"
)

// ShardFrame is a decoded shard frame awaiting AdoptShard: the chips of
// its node range, bound to the machine that decoded them, the GDT entries
// and the machine clock.
type ShardFrame struct {
	Cycle int64
	lo    int
	chips []*chip.Chip
	gdt   gtlb.Table
}

// shard walks a partial-machine wire frame: the configuration, the
// machine clock, the node range, the GDT and the full serialized state of
// the frame's chips — what a process needs to build a machine and step
// the range (the dist seed), and what a machine needs to install it (the
// dist pull). The frame shares the snapshot version (the chip encoding
// is the same); it carries no network or page-allocator state. Decoding,
// a frame of another configuration or node range is refused, and the walk
// fills f with new chips bound to m's network and GDT.
func (m *Machine) shard(c *snap.Codec, f *ShardFrame) error {
	if err := header(c, shardFrameMagic, "shard frame", "frame"); err != nil {
		return err
	}
	if err := m.sameConfig(c, "shard frame", "install"); err != nil {
		return err
	}
	c.I64(&f.Cycle)
	lo, hi := f.lo, f.lo+len(f.chips)
	c.Int(&lo)
	c.Int(&hi)
	if c.Err() == nil && (lo != f.lo || hi != f.lo+len(f.chips)) {
		return fmt.Errorf("frame covers [%d,%d), want [%d,%d)", lo, hi, f.lo, f.lo+len(f.chips))
	}
	f.gdt.State(c)
	if c.Reading() && c.Err() == nil {
		c.Fail(f.gdt.CheckMesh(gtlb.NodeID(m.Cfg.Dims)))
	}
	m.chipsState(c, f.lo, f.chips, f.Cycle)
	trailer := uint64(shardFrameTrailer)
	c.U64(&trailer)
	if c.Err() == nil && trailer != shardFrameTrailer {
		c.Fail(fmt.Errorf("machine: shard frame trailer missing (stream corrupt)"))
	}
	return c.Err()
}

// shardRange refuses a node range outside the machine.
func (m *Machine) shardRange(lo, hi int) error {
	if lo < 0 || hi > len(m.Chips) || lo >= hi {
		return fmt.Errorf("machine: shard range [%d,%d) outside 0..%d", lo, hi, len(m.Chips))
	}
	return nil
}

// EncodeShard writes the shard frame of chips [lo, hi) (see shard).
func (m *Machine) EncodeShard(w io.Writer, lo, hi int) error {
	if err := m.shardRange(lo, hi); err != nil {
		return err
	}
	m.syncDeferred()
	c := snap.NewEncoder(w)
	m.shard(c, &ShardFrame{Cycle: m.Cycle, lo: lo, chips: m.Chips[lo:hi], gdt: *m.GDT})
	if err := c.Flush(); err != nil {
		return fmt.Errorf("machine: encode shard [%d,%d): %w", lo, hi, err)
	}
	return nil
}

// DecodeShard decodes p, a frame of chips [lo, hi) that EncodeShard wrote
// on a machine of this one's configuration, and validates it whole into
// new chips; nothing in m changes until AdoptShard.
func (m *Machine) DecodeShard(p []byte, lo, hi int) (*ShardFrame, error) {
	if err := m.shardRange(lo, hi); err != nil {
		return nil, err
	}
	f := &ShardFrame{lo: lo, chips: make([]*chip.Chip, hi-lo)}
	if err := m.shard(snap.NewDecoder(p), f); err != nil {
		return nil, fmt.Errorf("machine: adopt shard [%d,%d): %w", lo, hi, err)
	}
	return f, nil
}

// AdoptShard installs a frame m decoded: its chips replace the range's
// (new objects, as after a Restore), its GDT entries are copied into m's
// table in place — every chip holds the table by pointer — and its clock
// becomes m's. It is Restore for a chip range: the network and the other
// chips are m's own.
func (m *Machine) AdoptShard(f *ShardFrame) {
	*m.GDT = f.gdt
	m.install(f.lo, f.chips, nil)
	m.Cycle = f.Cycle
}

// Rewind makes net the machine's network and cycle its clock, keeping
// every chip: the dist coordinator's checkpoint recovery, whose hub chips
// cannot change between the pulls that install them. net must not be
// shared with anything else that steps it.
func (m *Machine) Rewind(net *noc.Network, cycle int64) {
	m.install(0, m.Chips, &Machine{Net: net, GDT: m.GDT, Cycle: cycle, nextPPN: m.nextPPN})
}

// ReadShardConfig decodes just the configuration of shard frame p, so a
// process can build the machine the frame installs into (New, then
// DecodeShard and AdoptShard) from the frame alone — the dist worker's
// first seed. A configuration New cannot build is an error.
func ReadShardConfig(p []byte) (Config, error) {
	c := snap.NewDecoder(p)
	if err := header(c, shardFrameMagic, "shard frame", "frame"); err != nil {
		return Config{}, fmt.Errorf("machine: %w", err)
	}
	var cfg Config
	configState(c, &cfg)
	if err := c.Err(); err != nil {
		return Config{}, fmt.Errorf("machine: read shard frame config: %w", err)
	}
	if err := cfg.check(); err != nil {
		return Config{}, fmt.Errorf("machine: shard frame header: %w", err)
	}
	return cfg, nil
}

// ShardActivity aggregates the run-loop quantities over chips [lo, hi):
// their Activity, the earliest chip NextEvent at cycle now, and the first
// faulted-thread description in FaultError's scan order (empty if none).
// The coordinator sums these per-shard reports to make exactly the
// QuietLoop calls Machine.Run makes in-process.
func (m *Machine) ShardActivity(lo, hi int, now int64) (a Activity, next int64, fault string) {
	next = NoEvent
	for _, c := range m.Chips[lo:hi] {
		a.Running += c.RunningUser()
		if !c.Quiescent() {
			a.Busy++
		}
		a.Issued += c.InstsIssued
		if w := c.NextEvent(now); w < next {
			next = w
		}
	}
	return a, next, m.firstFault(lo, hi)
}
