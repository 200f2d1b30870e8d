package main

// Input generators for the four machine workloads. Each derives, from the
// seed alone, the programs and staged memory one repetition loads, plus
// the host-side model its outputs are checked against. Seeds change the
// details a layer's speed could depend on (operands, strides, offsets,
// the destination permutation, which nodes are active) and keep the
// amount of simulated work fixed, so that host-time metrics from
// different seeds are comparable.

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/workload"
)

// scale multiplies every workload's repetition length; 1 is the official
// size: about sixty operations (slices) of 6-13 ms each on the reference
// host, so a repetition lasts about half a second. Slices are short so
// that some of them fall between the host's interference (see endToEnd).
// Tests shrink it: a scale is the divisor.
type scale int64

func (s scale) of(n int64) int64 { return max(1, n/int64(s)) }

const fullScale scale = 1

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

var mesh32 = noc.Coord{X: 4, Y: 4, Z: 2}
var mesh128 = noc.Coord{X: 8, Y: 8, Z: 2}

func nodesOf(d noc.Coord) int { return d.X * d.Y * d.Z }

// coordOf mirrors noc.Network.CoordOf (X-major) for a mesh not built yet.
func coordOf(d noc.Coord, i int) noc.Coord {
	return noc.Coord{X: i % d.X, Y: i / d.X % d.Y, Z: i / (d.X * d.Y)}
}

// remoteWriteDIP is the runtime's remote-write dispatch pointer, which
// generated SEND programs name. It depends only on the (default) runtime
// options, so a one-node boot tells it.
func remoteWriteDIP() uint64 {
	boot, err := core.NewSim(core.Options{Nodes: 1})
	if err != nil {
		panic(err) // a 1-node boot with default options cannot fail
	}
	defer boot.M.Close()
	return boot.RT.DIPRemoteWrite
}

// homeBase mirrors core.Sim.HomeBase for a machine booted with the given
// HomePages (0 selects core's default of 4).
func homeBase(pages int) func(int) uint64 {
	if pages == 0 {
		pages = 4
	}
	return func(n int) uint64 { return uint64(n) * uint64(pages) * 1024 }
}

// busyALUInput: 4x4x2 mesh, a counted ALU loop on all four clusters of
// all 32 nodes. No memory operation, no SEND: chip/cluster/sched issue
// and execute do all the work. Seeded: each thread's operands.
func busyALUInput(seed uint64, sc scale) *simInput {
	rng := newRand(seed, 1)
	iters := sc.of(12000)
	in := &simInput{
		opts:        core.Options{Dims: mesh32},
		sliceCycles: 1000,
		maxCycles:   10*iters + 1000,
		sizes:       map[string]int64{"nodes": 32, "threads_per_node": 4, "loop_iters": iters, "slice_cycles": 1000},
	}
	type want struct {
		node, cl int
		v        uint64
	}
	var wants []want
	for n := 0; n < 32; n++ {
		for cl := 0; cl < 4; cl++ {
			init, k1, k2 := rng.Uint64N(1<<20), 1+rng.Uint64N(999), 1+rng.Uint64N(999)
			in.work = append(in.work, program{n, 0, cl, fmt.Sprintf(`
    movi i1, #0
    movi i2, #%d
    movi i4, #%d
loop:
    add i4, i4, #%d
    xor i4, i4, #%d
    add i1, i1, #1
    lt i3, i1, i2
    brt i3, loop
    halt
`, iters, init, k1, k2)})
			v := init
			for i := int64(0); i < iters; i++ {
				v = (v + k1) ^ k2
			}
			wants = append(wants, want{n, cl, v})
		}
	}
	in.check = func(s *core.Sim) error {
		for _, w := range wants {
			if got := s.Reg(w.node, 0, w.cl, 4); got != w.v {
				return fmt.Errorf("busy-alu: node %d cluster %d i4 = %d, want %d", w.node, w.cl, got, w.v)
			}
		}
		return nil
	}
	return in
}

// mem-stream shape. An operation has to fit the contract's repetition
// length (tens of milliseconds), far too short to walk out of the default
// modelled cache (16 KW) from cold. So the workload shrinks the *modelled*
// cache and LTLB instead of lengthening the walk: 256 lines (2 KW) and 8
// LTLB entries (4 KW reach) per node, against four regions of 4 pages
// (2 KW) per node, 8 KW in all. Each thread strides through a page for
// memRunLength accesses, then jumps a seeded odd number of pages, lapping
// its region several times: the first lap first-touches pages (LTLB miss +
// page allocation), later laps find their pages evicted from the LTLB and
// most blocks evicted from the cache by the other three threads. The
// steady mix per iteration is one load that hits, misses or LTLB-misses,
// then a store and a load that hit. Caches and LTLBs start empty in every
// operation.
const (
	memHomePages   = 16 // GTLB pages (1 KW each) of home range per node: holds the four regions
	memCacheLines  = 256
	memLTLBEntries = 8
	memRegionPages = 4
	memRegionWords = memRegionPages * 512
	memRunLength   = 4 // accesses between page jumps
)

var (
	memStrides   = []uint64{3, 5, 7}
	memPageJumps = []uint64{1, 3} // coprime with memRegionPages: every page is visited
)

func memStreamInput(seed uint64, sc scale) *simInput {
	rng := newRand(seed, 2)
	accesses := sc.of(300)
	home := homeBase(memHomePages)
	cfg := chip.DefaultConfig()
	cfg.Mem.Cache.Lines = memCacheLines
	cfg.Mem.LTLBEntries = memLTLBEntries
	in := &simInput{
		opts:        core.Options{Dims: mesh32, Chip: &cfg, HomePages: memHomePages},
		sliceCycles: 500,
		maxCycles:   4000*accesses + 100000,
		sizes: map[string]int64{"nodes": 32, "threads_per_node": 4, "accesses_per_thread": accesses, "slice_cycles": 500,
			"region_words": memRegionWords, "cache_words": memCacheLines * 8, "ltlb_reach_words": memLTLBEntries * 512},
	}
	type want struct {
		node       int
		addr, word uint64
	}
	var wants []want
	for n := 0; n < 32; n++ {
		for cl := 0; cl < 4; cl++ {
			// Regions start at word 512 of the home range, one per thread.
			base := home(n) + 512 + uint64(cl)*memRegionWords
			stride := memStrides[rng.IntN(len(memStrides))]
			jump := 512 * memPageJumps[rng.IntN(len(memPageJumps))]
			off := rng.Uint64N(memRegionWords)
			inc := uint64(n*4 + cl + 1)
			in.work = append(in.work, program{n, 0, cl, fmt.Sprintf(`
    movi i1, #%d            ; region base
    movi i2, #0             ; access counter
    movi i3, #%d            ; accesses
    movi i6, #%d            ; offset in region
    movi i7, #%d            ; region words
    movi i8, #%d            ; increment
loop:
    add i9, i1, i6
    ld i4, [i9]
    add i4, i4, i8
    st [i9], i4
    ld i10, [i9+1]
    add i6, i6, #%d         ; stride
    and i11, i2, #%d
    ne i12, i11, #%d
    brt i12, nojump
    add i6, i6, #%d         ; page jump at the end of a run
nojump:
    lt i5, i6, i7
    brt i5, nowrap
    sub i6, i6, i7
nowrap:
    add i2, i2, #1
    lt i5, i2, i3
    brt i5, loop
    halt
`, base, accesses, off, memRegionWords, inc, stride, memRunLength-1, memRunLength-1, jump)})
			// The host-side model walks the same offsets.
			visit := func(f func(i int64, o uint64)) {
				o := off
				for i := int64(0); i < accesses; i++ {
					f(i, o)
					o += stride
					if i%memRunLength == memRunLength-1 {
						o += jump
					}
					if o >= memRegionWords {
						o -= memRegionWords
					}
				}
			}
			counts := map[uint64]uint64{}
			visit(func(_ int64, o uint64) { counts[o]++ })
			visit(func(i int64, o uint64) {
				if i == 0 || i == accesses/2 || i == accesses-1 {
					wants = append(wants, want{n, base + o, counts[o] * inc})
				}
			})
		}
	}
	in.check = func(s *core.Sim) error {
		for _, w := range wants {
			got, err := s.Peek(w.node, w.addr)
			if err != nil {
				return fmt.Errorf("mem-stream: node %d addr %d: %w", w.node, w.addr, err)
			}
			if got != w.word {
				return fmt.Errorf("mem-stream: node %d addr %d = %d, want %d", w.node, w.addr, got, w.word)
			}
		}
		return nil
	}
	return in
}

// permutation draws a destination permutation over the mesh in which
// every node sends at least two hops away and the total hop count is
// exactly totalHops, so that the network does the same amount of work
// for every seed while the routes differ.
func permutation(rng *rand.Rand, dims noc.Coord, totalHops int) []int {
	for {
		p := rng.Perm(nodesOf(dims))
		hops, ok := 0, true
		for i, d := range p {
			h := noc.Distance(coordOf(dims, i), coordOf(dims, d))
			if h < 2 {
				ok = false
				break
			}
			hops += h
		}
		if ok && hops == totalHops {
			return p
		}
	}
}

// msgStormInput: 32 nodes, every node streams remote stores through the
// SEND datapath into the mailbox of its seeded multi-hop destination
// (workload.NeighborExchangeSrc's shape, with the mailbox index wrapped
// so a storm can be longer than the mailbox). Body word = destination
// address, so the mailboxes are self-checking whatever order the
// return-to-sender protocol delivers in.
func msgStormInput(seed uint64, sc scale) *simInput {
	rng := newRand(seed, 3)
	msgs := sc.of(3600)
	const totalHops = 104 // mean 3.25 hops: a little above the 4x4x2 mesh's random-pair mean
	perm := permutation(rng, mesh32, totalHops)
	home := homeBase(0)
	dip := remoteWriteDIP()
	in := &simInput{
		opts:        core.Options{Dims: mesh32},
		sliceCycles: 500,
		maxCycles:   2000*msgs + 100000,
		sizes: map[string]int64{"nodes": 32, "msgs_per_node": msgs, "total_hops": totalHops, "slice_cycles": 500,
			"mailbox_words": workload.MeshMaxMsgs},
	}
	firsts := make([]uint64, 32)
	for n := 0; n < 32; n++ {
		// Staging: first-touch the mailbox page at its home.
		in.stage = append(in.stage, program{n, 3, 3, fmt.Sprintf(`
    movi i1, #%d
    movi i2, #0
    st [i1], i2
    halt
`, home(n)+workload.MeshMailbox)})
		firsts[n] = rng.Uint64N(workload.MeshMaxMsgs)
		in.work = append(in.work, program{n, 0, 0, fmt.Sprintf(`
    movi i1, #%d            ; destination mailbox base
    movi i3, #%d            ; remote-write DIP
    movi i5, #%d            ; running mailbox index
    movi i6, #%d            ; end index
    movi i10, #%d           ; mailbox mask
loop:
    and i4, i5, i10
    add i9, i1, i4          ; destination address
    send i9, i3, i9, #1     ; body word = destination address
    add i5, i5, #1
    lt i7, i5, i6
    brt i7, loop
    halt
`, home(perm[n])+workload.MeshMailbox, dip, firsts[n], firsts[n]+uint64(msgs), workload.MeshMaxMsgs-1)})
	}
	in.check = func(s *core.Sim) error {
		slots := min(msgs, workload.MeshMaxMsgs)
		for n := 0; n < 32; n++ {
			for k := int64(0); k < slots; k++ {
				slot := (firsts[n] + uint64(k)) % workload.MeshMaxMsgs
				addr := workload.NeighborExchangeAddr(home, perm[n], int(slot))
				got, err := s.Peek(perm[n], addr)
				if err != nil {
					return fmt.Errorf("msg-storm: node %d mailbox %d: %w", perm[n], slot, err)
				}
				if got != addr {
					return fmt.Errorf("msg-storm: node %d mailbox %d = %d, want %d", perm[n], slot, got, addr)
				}
			}
		}
		return nil
	}
	return in
}

// idleRemoteInput: 8x8x2 mesh (128 nodes), four seeded active nodes each
// chasing a pointer chain staged on far nodes: every element is homed
// idleHopDistance hops from the active node and holds the address of the
// next, and each step also stores a counter beside it. Every access is a
// remote round trip, so 124 chips idle while a handful step: the
// machine's NextEvent scans and per-chip skip and drain loops do the
// work, and issue does little. (A message is in flight on almost every
// cycle, so the clock rarely jumps: the network steps cycle by cycle.)
const idleHopDistance = 8

func idleRemoteInput(seed uint64, sc scale) *simInput {
	rng := newRand(seed, 4)
	chain := sc.of(2000)
	const active = 4
	nodes := nodesOf(mesh128)
	home := homeBase(0)
	in := &simInput{
		opts:        core.Options{Dims: mesh128},
		sliceCycles: 2500,
		maxCycles:   5000*chain + 100000,
		sizes: map[string]int64{"nodes": int64(nodes), "active_nodes": active, "chain_length": chain, "slice_cycles": 2500,
			"hop_distance": idleHopDistance},
	}
	type want struct {
		node       int
		addr, word uint64
	}
	var wants []want
	type regWant struct {
		node int
		v    uint64
	}
	var regs []regWant
	slot := make([]uint64, nodes) // next free chain word per home node
	for a, an := range rng.Perm(nodes)[:active] {
		var far []int
		for i := 0; i < nodes; i++ {
			if noc.Distance(coordOf(mesh128, an), coordOf(mesh128, i)) == idleHopDistance {
				far = append(far, i)
			}
		}
		// Chain elements live in their node's home range from word 512 up,
		// two words each: next pointer, then the counter cell.
		addrs := make([]uint64, chain+1)
		owner := make([]int, chain+1)
		for k := range addrs {
			t := far[rng.IntN(len(far))]
			owner[k] = t
			addrs[k] = home(t) + 512 + 2*slot[t]
			slot[t]++
		}
		for k := int64(0); k < chain; k++ {
			in.pokes = append(in.pokes, poke{owner[k], addrs[k], addrs[k+1]})
			wants = append(wants, want{owner[k], addrs[k] + 1, uint64(a+1) + uint64(k)})
		}
		in.pokes = append(in.pokes, poke{owner[chain], addrs[chain], 0})
		in.work = append(in.work, program{an, 0, 0, fmt.Sprintf(`
    movi i1, #%d            ; chain head
    movi i2, #0
    movi i3, #%d            ; chain length
    movi i8, #%d            ; counter seed
loop:
    st [i1+1], i8           ; remote store beside the element
    ld i1, [i1]             ; remote load: the next element's address
    add i8, i8, #1
    add i2, i2, #1
    lt i5, i2, i3
    brt i5, loop
    halt
`, addrs[0], chain, a+1)})
		regs = append(regs, regWant{an, addrs[chain]})
	}
	in.check = func(s *core.Sim) error {
		for _, r := range regs {
			if got := s.Reg(r.node, 0, 0, 1); got != r.v {
				return fmt.Errorf("idle-remote: node %d i1 = %d, want chain end %d", r.node, got, r.v)
			}
		}
		for _, w := range wants {
			got, err := s.Peek(w.node, w.addr)
			if err != nil {
				return fmt.Errorf("idle-remote: node %d addr %d: %w", w.node, w.addr, err)
			}
			if got != w.word {
				return fmt.Errorf("idle-remote: node %d addr %d = %d, want %d", w.node, w.addr, got, w.word)
			}
		}
		return nil
	}
	return in
}
