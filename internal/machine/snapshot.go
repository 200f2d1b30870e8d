package machine

// Checkpoint/restore (DESIGN.md, "Checkpoint/restore"): Save serializes
// the complete simulation state — every chip, the memory systems, the
// in-flight network, the GDT, and the machine clock — to a versioned
// binary stream; Restore loads one into a compatible machine; Fork clones
// a machine structurally, sharing SDRAM pages copy-on-write.
//
// Snapshots are engine-agnostic: Save first materializes the idle-chip
// bookkeeping the chip phase deferred (the same sync point Run and Close
// use), so the serialized state is the one the naive loop would show, bit
// for bit. Restore re-derives the event-engine wake caches by touching
// every chip — the always-safe early direction of the NextEvent contract —
// so the restored machine continues identically under any engine.
//
// Save and Restore run one walk, snapshot, in the two directions of the
// codec. Restore is all-or-nothing by construction: decoding, the walk
// builds new chips, a new network and a new GDT that nothing in the
// machine points to, and
// install swaps them in only after the whole stream, trailer included, has
// validated — so a corrupt, truncated, or mismatched snapshot returns an
// error and there is nothing it could have changed.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"

	"repro/internal/chip"
	"repro/internal/gtlb"
	"repro/internal/noc"
	"repro/internal/snap"
)

// SnapshotVersion is the current snapshot format version. Restore rejects
// any other version; the format has no cross-version migration. Version 2
// writes only the SDRAM pages that hold data; version 3 writes each
// program once per stream and only the non-zero registers of a bank.
const SnapshotVersion = 3

// Magic words bracketing a snapshot stream ("MSIMSNAP" / "MSIMEND\n" as
// little-endian words): the header identifies the format before anything
// is decoded, the trailer proves the stream was not truncated after the
// last variable-length section.
const (
	snapshotMagic   = 0x50414e534d49534d // "MSIMSNAP"
	snapshotTrailer = 0x0a444e454d49534d // "MSIMEND\n"
)

// configState walks the parts of the configuration that define snapshot
// compatibility: the mesh shape and the chip's timing and capacity
// parameters. Engine selection (Machine.Naive) is deliberately excluded
// — it is not simulated state, and a snapshot taken under one engine
// restores under any other.
func configState(c *snap.Codec, cfg *Config) {
	c.Int(&cfg.Dims.X)
	c.Int(&cfg.Dims.Y)
	c.Int(&cfg.Dims.Z)
	k := &cfg.Chip
	c.U64(&k.Mem.SDRAM.Words)
	c.U64(&k.Mem.SDRAM.RowWords)
	c.I64(&k.Mem.SDRAM.RowHitLat)
	c.I64(&k.Mem.SDRAM.RowMissLat)
	c.Int(&k.Mem.Cache.Lines)
	c.Int(&k.Mem.LTLBEntries)
	c.U64(&k.Mem.LPT.Base)
	c.U64(&k.Mem.LPT.Entries)
	c.I64(&k.Mem.ReadHitLat)
	c.I64(&k.Mem.WriteHitLat)
	c.I64(&k.Mem.MissDetectLat)
	c.I64(&k.Mem.PhysAccessLat)
	c.I64(&k.Mem.LineLoadLat)
	c.I64(&k.Net.InjectLat)
	c.I64(&k.Net.HopLat)
	c.I64(&k.Net.DeliverLat)
	c.I64(&k.IntLat)
	c.I64(&k.FPLat)
	c.I64(&k.FDivLat)
	c.I64(&k.XferLat)
	c.I64(&k.GCCLat)
	c.I64(&k.GTLBLat)
	c.Int(&k.CSwitchPorts)
	c.Int(&k.MsgQueueCap)
	c.Int(&k.EventQueueCap)
	c.Int(&k.SendCredits)
	c.I64(&k.ResendDelay)
}

// header walks the two words that open a stream — its kind's magic and
// the snapshot version — and describes a decoded mismatch, naming the
// stream and its version as the caller's kind calls them.
func header(c *snap.Codec, magic uint64, stream, version string) error {
	m, v := magic, uint64(SnapshotVersion)
	c.U64(&m)
	if c.Err() == nil && m != magic {
		return fmt.Errorf("not a %s (bad magic %#x)", stream, m)
	}
	c.U64(&v)
	if c.Err() == nil && v != SnapshotVersion {
		return fmt.Errorf("unsupported %s version %d (this build reads version %d)", version, v, SnapshotVersion)
	}
	return nil
}

// sameConfig walks m's configuration; decoding, a stream (a snapshot or
// a shard frame) of another configuration is refused.
func (m *Machine) sameConfig(c *snap.Codec, stream, verb string) error {
	cfg := m.Cfg
	configState(c, &cfg)
	if c.Err() == nil && (cfg.Dims != m.Cfg.Dims || cfg.Chip != m.Cfg.Chip) {
		return fmt.Errorf("%s of a %v mesh with a different configuration cannot %s into this %v machine",
			stream, cfg.Dims, verb, m.Cfg.Dims)
	}
	return nil
}

// snapshot walks a Save stream: header and configuration, clock, page
// allocators, GDT, every chip, network, trailer. Encoding, m is the
// machine being saved. Decoding, m is a shell with the target's
// configuration and chip count: a stream of another configuration is
// refused, and the walk builds a new GDT, chips and network into the
// shell, bound to each other — nothing the target can reach is written.
func (m *Machine) snapshot(c *snap.Codec) error {
	if err := header(c, snapshotMagic, "snapshot stream", "snapshot"); err != nil {
		return err
	}
	if err := m.sameConfig(c, "snapshot", "restore"); err != nil {
		return err
	}
	c.I64(&m.Cycle)
	n := c.Len(len(m.nextPPN), len(m.Chips))
	if c.Reading() {
		if c.Err() == nil && n != len(m.Chips) {
			c.Fail(fmt.Errorf("machine: snapshot has %d page allocators for %d nodes", n, len(m.Chips)))
		}
		m.nextPPN = make([]uint64, n)
		m.GDT = &gtlb.Table{}
		m.Net = noc.New(m.Cfg.Dims, m.Cfg.Chip.Net)
	}
	for i := range m.nextPPN {
		c.U64(&m.nextPPN[i])
	}
	m.GDT.State(c)
	if c.Reading() && c.Err() == nil {
		c.Fail(m.GDT.CheckMesh(gtlb.NodeID(m.Cfg.Dims)))
	}
	m.chipsState(c, 0, m.Chips, m.Cycle)
	m.Net.State(c)
	trailer := uint64(snapshotTrailer)
	c.U64(&trailer)
	if c.Err() == nil && trailer != snapshotTrailer {
		c.Fail(fmt.Errorf("machine: snapshot trailer missing (stream corrupt)"))
	}
	return c.Err()
}

// chipsState walks chips, the machine's nodes from lo on, at machine cycle
// cycle. Decoding, it builds each one bound to m's network and GDT.
func (m *Machine) chipsState(c *snap.Codec, lo int, chips []*chip.Chip, cycle int64) {
	for i := range chips {
		if !c.Reading() {
			chips[i].State(c)
			continue
		}
		chips[i] = chip.Decode(c, m.Cfg.Chip, m.Net.CoordOf(lo+i), lo+i, m.Net, m.GDT)
		if c.Err() == nil && (cycle < 0 || chips[i].Cycle != cycle) {
			c.Fail(fmt.Errorf("machine: chip %d at cycle %d in a stream of machine cycle %d", lo+i, chips[i].Cycle, cycle))
		} else if c.Err() == nil {
			c.Fail(chips[i].GTLB.CheckMesh(gtlb.NodeID(m.Cfg.Dims)))
		}
	}
}

// Save serializes the machine's complete simulation state to w. It must
// be called between cycles (any point where Step/Run/RunLoop is not
// executing — the same contract as Close). Not captured, by design: the
// engine configuration, trace sink, and chip wake hooks —
// environment, not state — and the event-engine wake caches, which
// Restore re-derives.
func (m *Machine) Save(w io.Writer) error {
	m.syncDeferred()
	c := snap.NewEncoder(w)
	m.snapshot(c)
	if err := c.Flush(); err != nil {
		return fmt.Errorf("machine: save: %w", err)
	}
	return nil
}

// Digest is the canonical state fingerprint: the hex sha256 of the Save
// stream. Two machines with equal digests hold bit-identical simulation
// state, whatever engine, transport, or recovery path produced them —
// scenario results, sweep points, msimd sessions and distributed runs
// all report this one value.
func (m *Machine) Digest() (string, error) {
	h := sha256.New()
	if err := m.Save(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Restore replaces the machine's simulation state with a snapshot written
// by Save. The target must have the same mesh shape and chip
// configuration as the saved machine (the snapshot carries both and
// Restore verifies them); the engine selection, trace sink and fault
// probe of the target are preserved. On any error the
// machine is left untouched. On success m.Chips[i], m.Net and m.GDT are
// new objects: reach them through the machine after a restore, not
// through pointers taken before it. The decoder copies what it keeps out
// of p, so the caller may reuse p afterwards.
func (m *Machine) Restore(p []byte) error {
	top := &Machine{Cfg: m.Cfg, Chips: make([]*chip.Chip, len(m.Chips))}
	if err := top.snapshot(snap.NewDecoder(p)); err != nil {
		return fmt.Errorf("machine: restore: %w", err)
	}
	// Bookkeeping the chip phase deferred on the old chips goes with them:
	// every new chip carries its saved Cycle.
	m.install(0, top.Chips, top)
	return nil
}

// Fork clones the machine: the clone has identical simulation state and
// engine configuration but no trace sink or fault probe, and
// evolves independently of the original (what-if runs, record/replay
// debugging). The caller owns the clone's Close. Like Save it must be
// called between cycles, and it brackets the copy with the same sync
// points as a Save followed by a Restore — deferred idle bookkeeping is
// materialized first, every chip of the clone is touched and the
// activity counters rebuilt afterwards — so the clone is
// indistinguishable from Restore(Save(m)) into a fresh machine under
// every engine: a new shell, and install on the cloned parts where
// Restore runs it on decoded ones. Every component is copied by its Clone
// method except what is immutable (programs) and the SDRAM's chunk
// tables and pages, which original and clone share until either writes
// one (mem.SDRAM.Clone); the two machines may then run on different
// goroutines.
func (m *Machine) Fork() (*Machine, error) {
	m.syncDeferred()
	top := &Machine{Net: m.Net.Clone(), GDT: m.GDT.Clone(), Cycle: m.Cycle, nextPPN: slices.Clone(m.nextPPN)}
	chips := make([]*chip.Chip, len(m.Chips))
	for i, c := range m.Chips {
		chips[i] = c.Clone(top.Net, top.GDT)
	}
	f := newShell(m.Cfg)
	f.Naive = m.Naive
	f.install(0, chips, top)
	return f, nil
}
