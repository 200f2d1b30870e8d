package machine_test

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/wgen"
	"repro/internal/workload"
)

// scanActivity is the run loop's activity computed from scratch: running
// user H-Threads read off their statuses, chips with outstanding work,
// and instructions issued.
func scanActivity(m *machine.Machine) machine.Activity {
	var a machine.Activity
	for _, c := range m.Chips {
		for vt := 0; vt < isa.NumUserSlots; vt++ {
			for cl := 0; cl < isa.NumClusters; cl++ {
				if c.Thread(vt, cl).Status == cluster.ThreadRunning {
					a.Running++
				}
			}
		}
		if !c.Quiescent() {
			a.Busy++
		}
		a.Issued += c.InstsIssued
	}
	return a
}

// checkActivity fails t unless m's incremental activity equals the scan
// and every cluster's live-slot mask equals its thread statuses. It
// returns the scan.
func checkActivity(t *testing.T, m *machine.Machine, where string) machine.Activity {
	t.Helper()
	want := scanActivity(m)
	if got := machine.ActivityOf(m); got != want {
		t.Fatalf("%s: incremental activity %+v, scan %+v", where, got, want)
	}
	for i, c := range m.Chips {
		for cl, cc := range c.Clusters {
			var live uint8
			for vt, th := range cc.Threads {
				if th.Status == cluster.ThreadRunning {
					live |= 1 << vt
				}
			}
			if cc.Live != live {
				t.Fatalf("%s: node %d cluster %d Live %06b, statuses %06b", where, i, cl, cc.Live, live)
			}
		}
	}
	return want
}

// crossBoundary takes m through one state boundary, chosen by k, and
// checks the counters on the other side: Save + Restore into m, a Fork
// stepped a few cycles on its own, or an EncodeShard + AdoptShard of the
// upper half of the mesh.
func crossBoundary(t *testing.T, m *machine.Machine, k int, where string) {
	t.Helper()
	var buf bytes.Buffer
	switch k % 3 {
	case 0:
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if err := m.Restore(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		checkActivity(t, m, where+" after Restore")
	case 1:
		f, err := m.Fork()
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		checkActivity(t, f, where+" in the Fork")
		for i := 0; i < 20; i++ {
			f.Step()
			checkActivity(t, f, where+" stepping the Fork")
		}
	case 2:
		lo, hi := m.NumNodes()/2, m.NumNodes()
		if err := m.EncodeShard(&buf, lo, hi); err != nil {
			t.Fatal(err)
		}
		f, err := m.DecodeShard(buf.Bytes(), lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		m.AdoptShard(f)
		checkActivity(t, m, where+" after AdoptShard")
	}
}

// TestActivityMatchesScan: the run loop's activity counters and the
// issue scan's live-slot masks are maintained incrementally — at program
// load, HALT and synchronous faults, rebuilt on decode, copied by Clone —
// and must equal a from-scratch walk after every public Step and across
// every state boundary, under each in-process engine. The cases are
// generated scenarios whose threads halt and a user-mode guarded-pointer
// walk whose first store faults (read-only pointer).
func TestActivityMatchesScan(t *testing.T) {
	type scenario struct {
		sc     *core.Scenario
		faults bool
	}
	var cases []scenario
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	for seed := uint64(0); len(cases) < seeds; seed++ {
		name, src := wgen.Source(seed)
		sc, err := core.ScenarioFromDSL(name, src)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Plan.Sweep == nil {
			cases = append(cases, scenario{sc, false})
		}
	}
	gp, err := os.ReadFile("../../testdata/workloads/gpwalk.wl")
	if err != nil {
		t.Fatal(err)
	}
	ro := strings.Replace(string(gp), "perms=rw", "perms=r", 1)
	if ro == string(gp) {
		t.Fatal("gpwalk.wl no longer grants perms=rw; update this test")
	}
	sc, err := core.ScenarioFromDSL("gpwalk-ro", ro)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, scenario{sc, true})

	// parallel2 and parallel3 ran the deleted worker pool; they keep their
	// names and repeat the event row.
	modes := []struct {
		name string
		opts core.Options
	}{
		{"naive", core.Options{NaiveEngine: true}},
		{"event", core.Options{}},
		{"parallel2", core.Options{}},
		{"parallel3", core.Options{}},
	}
	for _, c := range cases {
		for _, mode := range modes {
			t.Run(c.sc.Name+"/"+mode.name, func(t *testing.T) {
				stopped, fault := activityRun(t, c.sc, mode.opts)
				switch {
				case c.faults && fault == nil:
					t.Error("the read-only walk did not fault")
				case !c.faults && fault != nil:
					t.Errorf("unexpected fault: %v", fault)
				case !c.faults && stopped == 0:
					t.Error("no user thread halted; the case does not exercise HALT")
				}
			})
		}
	}
}

// activityRun executes the scenario's plan with every run phase driven
// by public Steps until the machine has been quiet for the completion
// window (or the phase budget ends), checking the counters after each
// Step and crossing a state boundary every 16 Steps. Expectations are
// skipped: a faulting case has nothing to expect. It reports how many
// running user threads stopped (halted or faulted) and the machine's
// fault error.
func activityRun(t *testing.T, sc *core.Scenario, o core.Options) (stopped int, fault error) {
	s, err := sc.NewSim(o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.M.Close()
	m := s.M
	run := sc.NewRun(s)
	steps := 0
	for !run.Done() {
		pos := run.Position()
		st := sc.Plan.Steps[pos.Next]
		switch st.Kind {
		case workload.PlanExpectReg, workload.PlanExpectMem, workload.PlanCheck:
		case workload.PlanRun:
			prev, idle := scanActivity(m), 0
			for ran := int64(0); ran < st.Budget && idle < machine.QuietWindow; ran++ {
				m.Step()
				steps++
				where := fmt.Sprintf("%s cycle %d", st.Pos, m.Cycle)
				a := checkActivity(t, m, where)
				if a.Running == 0 && a.Busy == 0 && m.Net.Quiescent() && a.Issued == prev.Issued {
					idle++
				} else {
					idle = 0
				}
				stopped += max(prev.Running-a.Running, 0)
				prev = a
				if steps%16 == 0 {
					crossBoundary(t, m, steps/16, where)
				}
			}
		default:
			if _, err := run.Advance(nil, 0); err != nil {
				t.Fatal(err)
			}
			continue
		}
		pos.Next++
		if err := run.Seek(pos); err != nil {
			t.Fatal(err)
		}
	}
	return stopped, m.FaultError()
}
