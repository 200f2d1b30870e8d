package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/asm"
	"repro/internal/guard"
	"repro/internal/workload"
)

// FuzzAssembleRun: arbitrary MAP assembly either fails to assemble or
// runs, privileged and as a user thread, on node 0 of a 2-node machine for
// up to 3000 cycles under supervision — ending done or in a classified
// failure (a thread fault, the cycle bound), never in a contained panic
// (ClassCrash, a simulator bug) and never in one that escapes. Seeded
// from the sample programs in testdata/.
func FuzzAssembleRun(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.masm"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no sample programs to seed from (%v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	// And one line each of the system, message and special-register
	// operations the samples leave out, for the mutator to recombine.
	f.Add(`
    movi i1, #4096
    movi i2, #7
    movi i8, #1
    bsw i1, i2
    bsr i3, [i1]
    dirlog i1, i2
    dircnt i4, [i1]
    gprobe i5, i1
    setptr i6, i1, #0x53
    lea i7, i6, #1
    ldp i9, [i1+1]
    stp [i1+1], i2
    rstw i3, i4
    mretry i1
    mov i10, net
    mov i11, evq
    mov i12, cyc
    mov i13, node
    mov @1.i5, i2
    empty i5
    sendn i1, i2, i8, #2
    send i1, i2, i8, #1 | fadd f1, f2, f3
    itof f1, i1
    fdiv f2, f1, f3
    ftoi i6, f2
    div i7, i1, i14
    shl i8, i1, #70
    jmpr i9
    halt
`)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := asm.Assemble("fuzz", src)
		if err != nil {
			return
		}
		for _, privileged := range []bool{true, false} {
			s, err := NewSim(Options{Nodes: 2})
			if err != nil {
				t.Fatal(err)
			}
			s.LoadProgram(0, 0, 0, p, privileged)
			_, err = s.RunSupervised(3000, guard.Options{})
			s.M.Close()
			if guard.Classify(err) == guard.ClassCrash {
				var f *guard.Failure
				if errors.As(err, &f) {
					t.Fatalf("privileged=%v: %v\n%s", privileged, err, f.Stack)
				}
				t.Fatalf("privileged=%v: %v", privileged, err)
			}
		}
	})
}

// FuzzScenarioRun: an arbitrary scenario source either fails to compile
// or, on a mesh of at most 8 nodes (every sweep point's included), runs
// under a 20000-cycle budget to success or a classified failure — never a
// contained panic (ClassCrash) and never one that escapes. Seeded from
// the checked-in scenarios in testdata/workloads/.
func FuzzScenarioRun(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "workloads", "*.wl"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no scenarios to seed from (%v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		sc, err := ScenarioFromDSL("fuzz.wl", src)
		if err != nil || fuzzMeshNodes(sc.Plan) > 8 {
			return
		}
		_, err = sc.Run(Options{Supervise: guard.Options{CycleBudget: 20000}})
		if guard.Classify(err) == guard.ClassCrash {
			var f *guard.Failure
			if errors.As(err, &f) {
				t.Fatalf("%v\n%s", err, f.Stack)
			}
			t.Fatal(err)
		}
	})
}

// fuzzMeshNodes is the largest mesh a plan boots: its own or a swept
// point's.
func fuzzMeshNodes(p *workload.Plan) int {
	n := p.Dims[0] * p.Dims[1] * p.Dims[2]
	if p.Sweep != nil {
		for _, pt := range p.Sweep.Points {
			n = max(n, pt.Dims[0]*pt.Dims[1]*pt.Dims[2])
		}
	}
	return n
}
