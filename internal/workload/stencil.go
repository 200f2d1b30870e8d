// Package workload generates the simulator's workloads as MAP assembly.
//
// The hand-written generators cover the paper's kernels — the 7-point
// and 27-point stencils of Section 3.1 / Figure 5 scheduled for 1, 2,
// or 4 H-Threads (Stencil7, Stencil27), the Figure 6 H-Thread loop
// synchronization kernel (LoopSync) with its SpinLoop baseline, and the
// ablation kernels (LoadHeavyKernel, PointerKernel) — plus the
// machine-scale mesh families (MeshSmooth, NeighborExchangeSrc; see
// mesh.go) used by the scaling experiments.
//
// FromDSL (dsl.go) lowers parsed declarative workload scenarios
// (internal/wdsl, docs/wdsl.md) onto these same primitives and the MAP
// assembler, producing an executable Plan; because the lowering reuses
// the generators verbatim, DSL re-expressions of the hand-written
// workloads are bit-identical to them under every engine.
package workload

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
)

// Stencil is a generated stencil kernel: one program per cluster (H-Thread)
// plus the static schedule depth of the kernel body — the metric of
// Figure 5 (instruction count of the longest H-Thread, prelude excluded).
type Stencil struct {
	Name     string
	HThreads int
	Programs []*isa.Program // index = cluster
	Depth    int            // static schedule depth of the longest body
	// RBase/UAddr are the virtual addresses the kernel expects: the
	// residual block at RBase and the smoothed value at UAddr.
	RBase, UAddr uint64
}

// Stencil memory layout: residuals at RBase.. (7 words for the 7-point
// kernel with r_c at offset 6; 27 words for the 27-point kernel with r_c
// at offset 26), u at UAddr.
const (
	StencilRBase = 0x100
	StencilUAddr = 0x180
)

// stencilPrelude emits address/constant setup shared by all stencil bodies;
// its instruction count is excluded from the depth metric. f1 = a, f2 = b.
const stencilPrelude = `
    movi i1, #256           ; RBase
    movi i2, #384           ; UAddr
    movi i3, #2
    itof f1, i3             ; a = 2.0
    movi i3, #3
    itof f2, i3             ; b = 3.0
`

var preludeLen = func() int {
	return asm.MustAssemble("prelude", stencilPrelude).Len()
}()

// Stencil7 generates the 7-point stencil of Figure 5 for 1 or 2 H-Threads,
// using the paper's exact schedules: depth 12 on one H-Thread, depth 8 on
// two. The computed value is u += a*r_c + b*(r_u+r_d+r_n+r_s+r_e+r_w).
func Stencil7(hthreads int) (*Stencil, error) {
	switch hthreads {
	case 1:
		return one7(), nil
	case 2:
		return two7(), nil
	}
	return nil, fmt.Errorf("workload: 7-point stencil supports 1 or 2 H-Threads, not %d", hthreads)
}

// one7 is Figure 5(a): a single H-Thread, 12 instructions.
func one7() *Stencil {
	body := `
    ld f3, [i1]                         ; 1. load r_u
    ld f4, [i1+1]                       ; 2. load r_d
    ld f5, [i1+2]  | fadd f10, f3, f4   ; 3. load r_n  | t2 = r_u + r_d
    ld f6, [i1+3]  | fadd f10, f10, f5  ; 4. load r_s  | t2 += r_n
    ld f7, [i1+4]  | fadd f10, f10, f6  ; 5. load r_e  | t2 += r_s
    ld f8, [i1+5]  | fadd f10, f10, f7  ; 6. load r_w  | t2 += r_e
    ld f9, [i1+6]  | fadd f10, f10, f8  ; 7. load r_c  | t2 += r_w
    ld f11, [i2]   | fmul f10, f2, f10  ; 8. load u_c  | t2 = b * t2
    fmul f12, f1, f9                    ; 9. t1 = a * r_c
    fadd f12, f12, f10                  ; 10. t1 = t1 + t2
    fadd f11, f11, f12                  ; 11. u_c = u_c + t1
    st [i2], f11                        ; 12. store u_c
    halt
`
	p := asm.MustAssemble("stencil7x1", stencilPrelude+body)
	return &Stencil{
		Name: "7-point stencil", HThreads: 1,
		Programs: []*isa.Program{p},
		Depth:    p.Len() - preludeLen - 1, // exclude prelude and halt
		RBase:    StencilRBase, UAddr: StencilUAddr,
	}
}

// two7 is Figure 5(b): two cooperating H-Threads, depth 8. H-Thread 0
// computes u_c + a*r_c + b*(r_u+r_d) and transmits it to H-Thread 1's f15
// through the C-Switch; H-Thread 1 sums the remaining residuals and stores.
// H-Thread 1 empties f15 in its second instruction before H-Thread 0's
// seventh can possibly complete, mirroring the paper's "empty t2" slot.
func two7() *Stencil {
	h0 := `
    ld f3, [i1]                         ; 1. load r_u
    ld f4, [i1+1]                       ; 2. load r_d
    ld f9, [i1+6]  | fadd f10, f3, f4   ; 3. load r_c  | t2 = r_u + r_d
    ld f11, [i2]   | fmul f10, f2, f10  ; 4. load u_c  | t2 = b * t2
    fmul f12, f1, f9                    ; 5. t1 = a * r_c
    fadd f12, f11, f12                  ; 6. t1 = u_c + t1
    fadd @1.f15, f12, f10               ; 7. H1.t2 = t1 + t2
    halt
`
	h1 := `
    ld f5, [i1+2]                       ; 1. load r_n
    ld f6, [i1+3]  | empty f15          ; 2. load r_s  | empty t2
    ld f7, [i1+4]  | fadd f13, f5, f6   ; 3. load r_e  | t1 = r_n + r_s
    ld f8, [i1+5]  | fadd f13, f13, f7  ; 4. load r_w  | t1 += r_e
    fadd f13, f13, f8                   ; 5. t1 += r_w
    fmul f13, f2, f13                   ; 6. t1 = b * t1
    fadd f14, f13, f15                  ; 7. u = t1 + t2 (waits on transfer)
    st [i2], f14                        ; 8. store u
    halt
`
	p0 := asm.MustAssemble("stencil7x2-h0", stencilPrelude+h0)
	p1 := asm.MustAssemble("stencil7x2-h1", stencilPrelude+h1)
	return &Stencil{
		Name: "7-point stencil", HThreads: 2,
		Programs: []*isa.Program{p0, p1},
		Depth:    p1.Len() - preludeLen - 1, // H1 is the longer body: 8
		RBase:    StencilRBase, UAddr: StencilUAddr,
	}
}

// Stencil27 generates the 27-point stencil mentioned in Section 3.1 for
// 1 or 4 H-Threads (paper: static depth 36 and 17). The computed value is
// u += a*r_c + b*sum(r_0..r_25): 27 loads of residuals plus the load of u,
// a 25-add reduction, two scales, and the combine.
func Stencil27(hthreads int) (*Stencil, error) {
	switch hthreads {
	case 1:
		return one27(), nil
	case 4:
		return four27(), nil
	}
	return nil, fmt.Errorf("workload: 27-point stencil supports 1 or 4 H-Threads, not %d", hthreads)
}

// reductionBody emits loads of residuals [lo,hi) into the rotating register
// set f3..f10 paired with a lag-1 accumulation chain into f11 — exactly the
// Figure 5(a) pattern ("load r_s | t2 = t2 + r_n" consumes the previous
// instruction's load). The register holding r_k is consumed at instruction
// k+1 and not reused before instruction k+8.
func reductionBody(b *strings.Builder, lo, hi int) {
	reg := func(k int) int { return 3 + (k-lo)%8 }
	n := hi - lo
	for k := 0; k < n; k++ {
		ld := fmt.Sprintf("ld f%d, [i1+%d]", reg(lo+k), lo+k)
		var fp string
		switch {
		case k == 2:
			fp = fmt.Sprintf("fadd f11, f%d, f%d", reg(lo), reg(lo+1))
		case k > 2:
			fp = fmt.Sprintf("fadd f11, f11, f%d", reg(lo+k-1))
		}
		if fp != "" {
			fmt.Fprintf(b, "    %s | %s\n", ld, fp)
		} else {
			fmt.Fprintf(b, "    %s\n", ld)
		}
	}
	// Drain the final residual.
	fmt.Fprintf(b, "    fadd f11, f11, f%d\n", reg(hi-1))
}

func one27() *Stencil {
	var b strings.Builder
	reductionBody(&b, 0, 26) // 26 neighbour residuals
	b.WriteString(`
    ld f12, [i1+26]         ; r_c
    ld f13, [i2]            ; u
    fmul f11, f2, f11       ; b * sum
    fmul f14, f1, f12       ; a * r_c
    fadd f13, f13, f11
    fadd f13, f13, f14
    st [i2], f13
    halt
`)
	p := asm.MustAssemble("stencil27x1", stencilPrelude+b.String())
	return &Stencil{
		Name: "27-point stencil", HThreads: 1,
		Programs: []*isa.Program{p},
		Depth:    p.Len() - preludeLen - 1,
		RBase:    StencilRBase, UAddr: StencilUAddr,
	}
}

// four27 distributes the 26 neighbour residuals over H-Threads 1..3, which
// ship their partial sums to H-Thread 0 through the C-Switch; H-Thread 0
// handles r_c and u and combines. gcc0 signals that H-Thread 0 has emptied
// the receive registers, so a partial can never arrive before its slot is
// prepared.
func four27() *Stencil {
	partial := func(h, lo, hi, dstReg int) *isa.Program {
		var b strings.Builder
		reductionBody(&b, lo, hi)
		b.WriteString("    mov i5, gcc0\n") // wait for receiver ready
		fmt.Fprintf(&b, "    fmov @0.f%d, f11\n", dstReg)
		b.WriteString("    halt\n")
		return asm.MustAssemble(fmt.Sprintf("stencil27x4-h%d", h), stencilPrelude+b.String())
	}
	h0 := `
    empty f5 | empty f6     ; prepare receive slots (both integer ALUs)
    empty f7
    eq gcc0, i3, i3         ; signal: receivers prepared
    ld f12, [i1+26]         ; r_c
    ld f13, [i2]            ; u
    fmul f14, f1, f12       ; a * r_c
    fadd f13, f13, f14
    fadd f5, f5, f6         ; waits on H1 and H2 partials
    fadd f5, f5, f7         ; waits on H3 partial
    fmul f5, f2, f5         ; b * sum
    fadd f13, f13, f5
    st [i2], f13
    halt
`
	p0 := asm.MustAssemble("stencil27x4-h0", stencilPrelude+h0)
	p1 := partial(1, 0, 9, 5)
	p2 := partial(2, 9, 18, 6)
	p3 := partial(3, 18, 26, 7)
	depth := 0
	for _, p := range []*isa.Program{p0, p1, p2, p3} {
		if d := p.Len() - preludeLen - 1; d > depth {
			depth = d
		}
	}
	return &Stencil{
		Name: "27-point stencil", HThreads: 4,
		Programs: []*isa.Program{p0, p1, p2, p3},
		Depth:    depth,
		RBase:    StencilRBase, UAddr: StencilUAddr,
	}
}
