// Package wgen generates random-but-reproducible workload scenarios for
// the engine determinism matrix (DESIGN.md "Workload DSL v2"): Source
// derives a complete .wl scenario from a 64-bit seed — mesh shape,
// program legs, phase structure, expectations, and occasionally a sweep
// or user-mode guarded-pointer leg — all within the machine bounds the
// DSL lowering validates. Verify (matrix.go) then runs the scenario
// under every in-process engine and requires bit-identical results.
//
// The package is simulation-critical (mlint's simCritical list): the
// generator derives everything from one splitmix64 stream — no maps,
// no wall clock, no global rand — so one seed names one scenario, on
// every host, forever. That is what makes a CI failure reproducible
// with `msim -gen-seed N`.
//
// The generated scenarios are structurally diverse but always
// self-checking: every leg ends in expect/check directives, so a
// scenario that runs to completion with wrong data fails loudly rather
// than silently contributing a digest.
package wgen

import (
	"fmt"
	"strings"

	"repro/internal/faultinject"
)

// rng shapes scenarios from the shared splitmix64 stream
// (faultinject.Rand): tiny, deterministic, and uniform enough.
type rng struct{ faultinject.Rand }

// in returns a value in [lo, hi] inclusive.
func (r *rng) in(lo, hi int) int { return lo + r.Intn(hi-lo+1) }

// oneIn reports true with probability 1/n.
func (r *rng) oneIn(n int) bool { return r.Intn(n) == 0 }

// Leg kinds. Exchange, loopsync, and the guarded-pointer walk appear at
// most once per scenario: exchange owns the shared mailbox region and
// its check reads every node, loopsync owns the chip's global condition
// codes, and capping the gp walk keeps its granted segments from
// stacking up on node 0.
const (
	legSpin = iota
	legWalk
	legExchange
	legLoopsync
	legGP
	numLegKinds
)

// meshes is the mesh-shape pool: within the DSL's validated bounds and
// small enough that hundreds of scenarios per CI run stay cheap, while
// covering the 1-node degenerate case, lines, and a 2-D mesh.
var meshes = [...][3]int{
	{1, 1, 1},
	{2, 1, 1},
	{3, 1, 1},
	{4, 1, 1},
	{2, 2, 1},
}

// scratchBase is the first word offset of the per-leg scratch regions
// inside each node's home range: above the generators' fixed regions
// (MeshUOffset 512, MeshMailbox 1536, MeshVOffset 2048 + chunk) and a
// multiple of 64 so granted segments of seglen 6 are naturally aligned.
const (
	scratchBase = 2560
	scratchSpan = 256 // per-leg region, multiple of 64
)

// Source derives seed's scenario. The returned name embeds the seed
// ("gen-<seed>") and the source is complete, parseable DSL — a seed
// whose source fails to compile is a generator bug, and Verify reports
// it as such.
func Source(seed uint64) (name, src string) {
	r := &rng{faultinject.Rand{State: seed}}
	var b strings.Builder

	mesh := meshes[r.Intn(len(meshes))]
	nodes := mesh[0] * mesh[1] * mesh[2]
	legs := 1 + r.Intn(3)

	fmt.Fprintf(&b, "; generated by wgen, seed %d — do not edit, regenerate instead\n", seed)
	fmt.Fprintf(&b, "workload \"generated scenario %d\"\n", seed)
	fmt.Fprintf(&b, "mesh %d %d %d\n", mesh[0], mesh[1], mesh[2])
	if r.oneIn(4) {
		b.WriteString("caching on\n")
	}
	b.WriteString("deadline 30s\n")

	// Pick each leg's kind up front so the sweep declaration (which
	// parameterizes the final leg) can be emitted before any steps.
	kinds := make([]int, legs)
	usedOnce := make([]bool, numLegKinds)
	for i := range kinds {
		for {
			k := r.Intn(numLegKinds)
			if k == legExchange && (nodes < 2 || usedOnce[k]) {
				continue
			}
			if (k == legLoopsync || k == legGP) && usedOnce[k] {
				continue
			}
			kinds[i] = k
			usedOnce[k] = true
			break
		}
	}

	// About a quarter of seeds wrap the final leg's main parameter in a
	// sweep: the earlier legs become the shared staging prefix, forked
	// once per point.
	sweep := r.oneIn(4)
	last := kinds[legs-1]
	var sweepVals []int
	if sweep {
		lo, hi := legParamRange(last)
		n := 2 + r.Intn(2)
		for len(sweepVals) < n {
			sweepVals = append(sweepVals, r.in(lo, hi))
		}
		b.WriteString("sweep P")
		for _, v := range sweepVals {
			fmt.Fprintf(&b, " %d", v)
		}
		b.WriteString("\n")
	}

	for i, k := range kinds {
		param := ""
		if sweep && i == legs-1 {
			param = "P"
		}
		emitLeg(&b, r, k, i, nodes, param)
	}
	return fmt.Sprintf("gen-%d", seed), b.String()
}

// legParamRange is the sweepable parameter's range for a leg kind.
func legParamRange(kind int) (lo, hi int) {
	switch kind {
	case legSpin:
		return 50, 400 // spin iterations
	case legWalk:
		return 8, 64 // walked words
	case legExchange:
		return 1, 32 // messages per node
	case legLoopsync:
		return 10, 100 // lock-step iterations
	case legGP:
		return 4, 32 // stores through the granted pointer
	}
	panic(fmt.Sprintf("wgen: unknown leg kind %d", kind))
}

// emitLeg writes one self-checking leg: program declaration(s), a load,
// a named run phase, and the leg's expectations. vthread = leg index,
// so concurrent staging never collides on thread slots; scratch regions
// are disjoint by leg index. param, when non-empty, is the sweep
// parameter's name standing in for the leg's main parameter.
func emitLeg(b *strings.Builder, r *rng, kind, idx, nodes int, param string) {
	v := idx // vthread
	x := r.Intn(nodes)
	p := func(dflt int) string {
		if param != "" {
			return param
		}
		return fmt.Sprintf("%d", dflt)
	}
	lo, hi := legParamRange(kind)
	n := r.in(lo, hi)

	switch kind {
	case legSpin:
		fmt.Fprintf(b, "\ngenerate spin%d spinloop iters=%s\n", idx, p(n))
		if all := r.oneIn(2); all {
			fmt.Fprintf(b, "load spin%d on all vthread=%d\n", idx, v)
		} else {
			fmt.Fprintf(b, "load spin%d on node %d vthread=%d\n", idx, x, v)
		}
		fmt.Fprintf(b, "phase leg%dspin\nrun 500000\n", idx)
		fmt.Fprintf(b, "expect reg node=%d vthread=%d reg=1 value=%s\n", x, v, p(n))

	case legWalk:
		off := scratchBase + idx*scratchSpan
		fmt.Fprintf(b, "\nprogram walk%d\n", idx)
		fmt.Fprintf(b, "    movi i1, #{home(node)+%d}\n", off)
		fmt.Fprintf(b, "    movi i2, #0\n")
		fmt.Fprintf(b, "    movi i3, #{%s}\n", p(n))
		fmt.Fprintf(b, "loop:\n")
		fmt.Fprintf(b, "    st [i1], i2\n")
		fmt.Fprintf(b, "    add i1, i1, #1\n")
		fmt.Fprintf(b, "    add i2, i2, #1\n")
		fmt.Fprintf(b, "    lt i5, i2, i3\n")
		fmt.Fprintf(b, "    brt i5, loop\n")
		fmt.Fprintf(b, "    halt\nend\n")
		fmt.Fprintf(b, "load walk%d on all vthread=%d\n", idx, v)
		fmt.Fprintf(b, "phase leg%dwalk\nrun 500000\n", idx)
		fmt.Fprintf(b, "expect mem node=%d addr=home(%d)+%d value=0\n", x, x, off)
		fmt.Fprintf(b, "expect mem node=%d addr=home(%d)+%d+%s-1 value=%s-1\n", x, x, off, p(n), p(n))

	case legExchange:
		fmt.Fprintf(b, "\ngenerate ex%d exchange msgs=%s\n", idx, p(n))
		fmt.Fprintf(b, "load ex%d on all vthread=%d\n", idx, v)
		fmt.Fprintf(b, "phase leg%dstorm\nrun 500000\n", idx)
		fmt.Fprintf(b, "check exchange msgs=%s\n", p(n))

	case legLoopsync:
		ht := 2
		if r.oneIn(2) {
			ht = 4
		}
		fmt.Fprintf(b, "\ngenerate ls%d loopsync hthreads=%d iters=%s\n", idx, ht, p(n))
		fmt.Fprintf(b, "load ls%d on node %d vthread=%d\n", idx, x, v)
		fmt.Fprintf(b, "phase leg%dsync\nrun 500000\n", idx)
		fmt.Fprintf(b, "expect reg node=%d vthread=%d cluster=0 reg=1 value=%s\n", x, v, p(n))
		fmt.Fprintf(b, "expect reg node=%d vthread=%d cluster=%d reg=1 value=%s\n", x, v, ht-1, p(n))

	case legGP:
		base := scratchBase + idx*scratchSpan
		fmt.Fprintf(b, "\nprogram gpw%d\n", idx)
		fmt.Fprintf(b, "    movi i2, #0\n")
		fmt.Fprintf(b, "    movi i3, #{%s}\n", p(n))
		fmt.Fprintf(b, "loop:\n")
		fmt.Fprintf(b, "    lea i1, i1, #1\n")
		fmt.Fprintf(b, "    st [i1], i2\n")
		fmt.Fprintf(b, "    add i2, i2, #1\n")
		fmt.Fprintf(b, "    lt i5, i2, i3\n")
		fmt.Fprintf(b, "    brt i5, loop\n")
		fmt.Fprintf(b, "    halt\nend\n")
		fmt.Fprintf(b, "load gpw%d on node %d user vthread=%d\n", idx, x, v)
		fmt.Fprintf(b, "grant node=%d vthread=%d reg=1 perms=rw seglen=6 addr=home(%d)+%d\n", x, v, x, base)
		fmt.Fprintf(b, "phase leg%dgp\nrun 500000\n", idx)
		fmt.Fprintf(b, "expect reg node=%d vthread=%d reg=2 value=%s\n", x, v, p(n))
		fmt.Fprintf(b, "expect mem node=%d addr=home(%d)+%d+%s value=%s-1\n", x, x, base, p(n), p(n))
	}
}
