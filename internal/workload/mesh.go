package workload

// Machine-scale mesh workloads: generators for programs that keep every
// node of an arbitrarily large mesh busy, used by the scaling experiments
// (`mbench -exp gridsmooth|meshscale`) and the determinism tests.
// Two families:
//
//   - MeshSmooth: a block-distributed 1-D smoothing pass (the grid-smooth
//     application generalized to any node count) — mostly local compute
//     with remote halo reads at chunk boundaries.
//   - NeighborExchangeSrc: bulk message passing — every node streams
//     remote stores into its successor's mailbox through the SEND
//     datapath, exercising injection, routing, handler dispatch, and the
//     return-to-sender throttle under all-node load.
//
// The generators emit assembly parameterized by resolved virtual
// addresses (the caller supplies its home-range layout), so they are
// independent of how the machine maps memory.

import (
	"fmt"
	"strings"
)

// Per-node home-range layout of the mesh workloads, in words relative to a
// node's home base, inside the default 4096-word home range. The regions
// are disjoint for every legal configuration: u occupies
// [512, 512+chunk) with chunk <= MeshMaxChunk, the mailbox occupies
// [1536, 1536+msgs) with msgs <= MeshMaxMsgs, and v occupies
// [2048, 2048+chunk) — so the smoothing and exchange workloads can even
// share one machine.
const (
	MeshUOffset = 512  // input chunk
	MeshMailbox = 1536 // NeighborExchange mailbox region
	MeshVOffset = 2048 // output chunk

	// MeshMaxChunk is the largest per-node chunk the layout supports.
	MeshMaxChunk = 1024
	// MeshMaxMsgs is the largest per-node mailbox the layout supports.
	MeshMaxMsgs = 512
)

// MeshSmooth is a block-distributed smoothing pass v[j] = u[j-1] + u[j] +
// u[j+1] over a grid of Nodes*Chunk elements, one chunk per node. Interior
// elements touch only node-local memory; each chunk's two boundary
// elements read halo values that may live on the neighbouring node.
type MeshSmooth struct {
	Nodes int
	Chunk int
}

// NewMeshSmooth distributes total grid elements over nodes. total must
// divide evenly and the resulting chunk must fit the layout.
func NewMeshSmooth(nodes, total int) (*MeshSmooth, error) {
	if nodes < 1 || total%nodes != 0 {
		return nil, fmt.Errorf("workload: %d grid elements do not divide over %d nodes", total, nodes)
	}
	chunk := total / nodes
	if chunk < 2 || chunk > MeshMaxChunk {
		return nil, fmt.Errorf("workload: chunk %d outside [2, %d]", chunk, MeshMaxChunk)
	}
	return &MeshSmooth{Nodes: nodes, Chunk: chunk}, nil
}

// Total is the grid size.
func (g *MeshSmooth) Total() int { return g.Nodes * g.Chunk }

// U is the staged input value of element j (computed on-node by StageSrc
// and on the host for verification).
func (g *MeshSmooth) U(j int) uint64 { return uint64(j%17 + 1) }

// Want is the expected output value of element j (boundary elements are
// not written).
func (g *MeshSmooth) Want(j int) uint64 {
	if j <= 0 || j >= g.Total()-1 {
		return 0
	}
	return g.U(j-1) + g.U(j) + g.U(j+1)
}

// UAddr returns element j's input address under the caller's home layout.
func (g *MeshSmooth) UAddr(homeBase func(int) uint64, j int) uint64 {
	return homeBase(j/g.Chunk) + MeshUOffset + uint64(j%g.Chunk)
}

// VAddr returns element j's output address.
func (g *MeshSmooth) VAddr(homeBase func(int) uint64, j int) uint64 {
	return homeBase(j/g.Chunk) + MeshVOffset + uint64(j%g.Chunk)
}

// StageSrc returns node's staging program: a loop computing u[j] = j%17+1
// for the node's chunk (first-touching the u pages at their home), plus a
// first touch of every v page so the worker's stores stay local.
func (g *MeshSmooth) StageSrc(node int, homeBase func(int) uint64) string {
	lo := node * g.Chunk
	var b strings.Builder
	fmt.Fprintf(&b, `
    movi i1, #%d            ; &u[lo]
    movi i2, #%d            ; global element index j
    movi i3, #0
    movi i4, #%d            ; chunk
    movi i10, #17
sloop:
    mod i5, i2, i10
    add i5, i5, #1
    st [i1], i5
    add i1, i1, #1
    add i2, i2, #1
    add i3, i3, #1
    lt i6, i3, i4
    brt i6, sloop
`, g.UAddr(homeBase, lo), lo, g.Chunk)
	for off := 0; off < g.Chunk; off += 512 {
		fmt.Fprintf(&b, "    movi i1, #%d\n    movi i5, #0\n    st [i1], i5\n",
			g.VAddr(homeBase, lo+off))
	}
	b.WriteString("    halt\n")
	return b.String()
}

// WorkerSrc returns node's smoothing program: an interior sweep whose three
// u reads are all chunk-local, then the chunk's boundary elements with halo
// reads that may be remote. Global grid boundaries are clamped (elements 0
// and Total-1 are not written).
func (g *MeshSmooth) WorkerSrc(node int, homeBase func(int) uint64) string {
	lo, hi := node*g.Chunk, (node+1)*g.Chunk // global [lo, hi)
	wlo, whi := lo, hi                       // writable range after clamping
	if wlo == 0 {
		wlo = 1
	}
	if whi == g.Total() {
		whi = g.Total() - 1
	}
	var b strings.Builder
	intLo, intHi := lo+1, hi-1 // interior: all three u accesses local
	fmt.Fprintf(&b, `
    movi i1, #%d            ; &u[intLo-1]
    movi i2, #%d            ; &v[intLo]
    movi i3, #0
    movi i4, #%d            ; interior count
loop:
    ld i5, [i1]
    ld i6, [i1+1]
    ld i7, [i1+2]
    add i8, i5, i6
    add i8, i8, i7
    st [i2], i8
    add i1, i1, #1
    add i2, i2, #1
    add i3, i3, #1
    lt i9, i3, i4
    brt i9, loop
`, g.UAddr(homeBase, intLo-1), g.VAddr(homeBase, intLo), intHi-intLo)
	// Boundary elements (halo reads may be remote).
	for _, j := range []int{lo, hi - 1} {
		if j < wlo || j >= whi || (j > lo && j < hi-1) {
			continue
		}
		fmt.Fprintf(&b, `
    movi i1, #%d
    ld i5, [i1]
    movi i1, #%d
    ld i6, [i1]
    movi i1, #%d
    ld i7, [i1]
    add i8, i5, i6
    add i8, i8, i7
    movi i1, #%d
    st [i1], i8
`, g.UAddr(homeBase, j-1), g.UAddr(homeBase, j), g.UAddr(homeBase, j+1),
			g.VAddr(homeBase, j))
	}
	b.WriteString("    halt\n")
	return b.String()
}

// NeighborExchangeSrc returns node's program for the bulk message-passing
// workload: msgs remote stores streamed into the successor node's mailbox
// via SEND (value = destination address, so the result is self-checking:
// mailbox word w of node n must equal its own address). dip must be the
// runtime's remote-write dispatch pointer; the program runs privileged.
// Every node sends and every node's message handler receives
// simultaneously, so the network, the hardware queues, and the throttle
// protocol all run under full load.
func NeighborExchangeSrc(node, nodes, msgs int, dip uint64, homeBase func(int) uint64) string {
	if msgs > MeshMaxMsgs {
		panic(fmt.Sprintf("workload: %d messages exceed the %d-word mailbox region", msgs, MeshMaxMsgs))
	}
	dst := (node + 1) % nodes
	base := homeBase(dst) + MeshMailbox
	return fmt.Sprintf(`
    movi i1, #%d            ; successor mailbox base
    movi i3, #%d            ; remote-write DIP
    movi i5, #0
    movi i6, #%d            ; message count
loop:
    add i8, i1, i5          ; body word: value = destination address
    add i9, i1, i5          ; destination address
    send i9, i3, i8, #1
    add i5, i5, #1
    lt i7, i5, i6
    brt i7, loop
    halt
`, base, dip, msgs)
}

// NeighborExchangeAddr returns the mailbox address of word w at node n,
// for host-side verification.
func NeighborExchangeAddr(homeBase func(int) uint64, n, w int) uint64 {
	return homeBase(n) + MeshMailbox + uint64(w)
}
