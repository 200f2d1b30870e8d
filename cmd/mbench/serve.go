package main

// The -serve soak: the msimd chaos recovery proof (ISSUE 7 acceptance).
// It stands up two in-process serve.Servers over the same scenario
// corpus — a chaos-free control and a chaotic twin with injected worker
// panics and wall-clock stalls — floods the chaotic one with concurrent
// sessions, and asserts the service's robustness contracts:
//
//  1. every transient-failure session completes after retry with a
//     final-state digest bit-identical to the control run's;
//  2. chaos never leaks across sessions: untouched sessions match their
//     controls too (trivially covered by 1, since every digest must
//     match, crashed or not);
//  3. load shedding is bounded: a full admission queue answers busy
//     instead of accepting unboundedly (exercised with a throttled pool);
//  4. drain suspends in-flight sessions with spooled checkpoints, and a
//     second server over the same spool re-adopts and finishes them —
//     digests again bit-identical to the control.
//
// Everything is seeded and slice sizes match across servers, so a soak
// failure reproduces exactly. This leg is not part of the -json metric
// record: its wall time is host-dependent by construction (injected
// stalls sleep real time).

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/guard"
	"repro/internal/serve"
)

// serveScenario generates the i-th soak scenario: distinct spinloop
// lengths so every session has its own expected digest.
func serveScenario(i int) (name, src string) {
	iters := 200 + 40*i
	return fmt.Sprintf("soak%03d.wl", i),
		fmt.Sprintf("workload \"soak%03d\"\nmesh 1\ngenerate sp spinloop iters=%d\nload sp on node 0\nrun 1000000\nexpect reg node=0 cluster=0 reg=1 value=%d\n",
			i, iters, iters)
}

// serveSoakSessions is the soak's session count ("hundreds of concurrent
// sessions": they are all admitted up front and drained by the pool).
const serveSoakSessions = 200

func serveConfig(spool string) serve.Config {
	return serve.Config{
		Spool:           spool,
		Workers:         8,
		Queue:           serveSoakSessions + 8,
		DefaultWall:     20 * time.Second,
		DefaultCycles:   1 << 22,
		CheckpointEvery: 512,
		Retries:         3,
		Backoff:         time.Millisecond,
		BackoffCap:      20 * time.Millisecond,
		Grace:           5 * time.Second,
	}
}

// runServeSoak executes the soak, printing one line per leg to w; any
// violated contract aborts with a descriptive error.
func runServeSoak(w io.Writer) error {
	dir, err := os.MkdirTemp("", "mbench-serve")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	spool := func(leg string) string { return dir + "/" + leg }

	// Control: every scenario uninterrupted. The digests recorded here
	// are the ground truth every chaotic execution must reproduce.
	control, err := serve.New(serveConfig(spool("control")))
	if err != nil {
		return err
	}
	want := make(map[string]string) // scenario name -> digest
	var controlSessions []*serve.Session
	for i := 0; i < serveSoakSessions; i++ {
		name, src := serveScenario(i)
		s, serr := control.Submit(name, src)
		if serr != nil {
			return fmt.Errorf("control: submit %s: %v", name, serr)
		}
		controlSessions = append(controlSessions, s)
	}
	for _, s := range controlSessions {
		<-s.Done()
		info := s.Info()
		if info.State != serve.StateDone {
			return fmt.Errorf("control: %s: %s (%s: %s)", info.Name, info.State, info.FailureClass, info.Failure)
		}
		want[info.Name] = info.Digest
	}
	control.Drain()
	fmt.Fprintf(w, "serve control: %d sessions done\n", len(want))

	// Chaos: injected panics on every 3rd admission and stalls past the
	// (shortened) deadline on every 7th; seq divisible by both panics.
	cfg := serveConfig(spool("chaos"))
	cfg.DefaultWall = 2 * time.Second // stalls must overrun it quickly
	cfg.Chaos = &serve.Chaos{Seed: 1234, PanicEvery: 3, StallEvery: 7,
		StallDelay: 3 * time.Second, MaxCycle: 600}
	chaotic, err := serve.New(cfg)
	if err != nil {
		return err
	}
	var sessions []*serve.Session
	for i := 0; i < serveSoakSessions; i++ {
		name, src := serveScenario(i)
		s, serr := chaotic.Submit(name, src)
		if serr != nil {
			return fmt.Errorf("chaos: submit %s: %v", name, serr)
		}
		sessions = append(sessions, s)
	}
	recovered, clean := 0, 0
	byClass := make(map[guard.Class]int)
	for _, s := range sessions {
		<-s.Done()
		info := s.Info()
		if info.State != serve.StateDone {
			return fmt.Errorf("chaos: %s did not recover: %s (%s: %s)",
				info.Name, info.State, info.FailureClass, info.Failure)
		}
		if info.Digest != want[info.Name] {
			return fmt.Errorf("chaos: %s: recovered digest %s != control %s — recovery is not bit-identical",
				info.Name, info.Digest, want[info.Name])
		}
		if info.Retries > 0 {
			recovered++
			byClass[info.FailureClass]++
		} else {
			clean++
		}
	}
	chaotic.Drain()
	if recovered == 0 {
		return fmt.Errorf("chaos: no session was ever faulted; the soak proved nothing")
	}
	if byClass[guard.ClassCrash] == 0 {
		return fmt.Errorf("chaos: no session recovered from a worker panic")
	}
	if byClass[guard.ClassStallTimeout]+byClass[guard.ClassStallHang] == 0 {
		return fmt.Errorf("chaos: no session recovered from a stall")
	}
	st := chaotic.Stats()
	fmt.Fprintf(w, "serve chaos: %d sessions done, %d recovered (%d crash, %d stall; %d retries), %d untouched — all digests match control\n",
		len(sessions), recovered, byClass[guard.ClassCrash],
		byClass[guard.ClassStallTimeout]+byClass[guard.ClassStallHang], st.Retries, clean)

	// Load shedding: a throttled server (1 worker, tiny queue) must answer
	// busy rather than queue unboundedly.
	shedCfg := serveConfig(spool("shed"))
	shedCfg.Workers = 1
	shedCfg.Queue = 2
	shed, err := serve.New(shedCfg)
	if err != nil {
		return err
	}
	shedded := false
	for i := 0; i < 32 && !shedded; i++ {
		name, src := serveScenario(i)
		_, serr := shed.Submit(name, src)
		if rej, ok := serr.(*serve.Rejection); ok && rej.Code == "busy" {
			shedded = true
		} else if serr != nil {
			return fmt.Errorf("shed: submit: %v", serr)
		}
	}
	shed.Drain()
	if !shedded {
		return fmt.Errorf("shed: 32 submissions into a 2-deep single-worker queue never shed load")
	}
	fmt.Fprintf(w, "serve shed: full queue answers busy (shed=%d)\n", shed.Stats().Shed)

	// Drain + re-adopt: start long sessions, drain mid-flight, boot a new
	// server over the same spool, and require bit-identical completions.
	longSrc := func(i int) (string, string) {
		iters := 150000 + 10000*i
		return fmt.Sprintf("long%d.wl", i),
			fmt.Sprintf("workload \"long%d\"\nmesh 1\ngenerate sp spinloop iters=%d\nload sp on node 0\nrun 10000000\nexpect reg node=0 cluster=0 reg=1 value=%d\n",
				i, iters, iters)
	}
	const longN = 4
	ctrl2, err := serve.New(serveConfig(spool("drain-control")))
	if err != nil {
		return err
	}
	wantLong := make(map[string]string)
	var ctrl2Sessions []*serve.Session
	for i := 0; i < longN; i++ {
		name, src := longSrc(i)
		s, serr := ctrl2.Submit(name, src)
		if serr != nil {
			return serr
		}
		ctrl2Sessions = append(ctrl2Sessions, s)
	}
	for _, s := range ctrl2Sessions {
		<-s.Done()
		info := s.Info()
		if info.State != serve.StateDone {
			return fmt.Errorf("drain control: %s: %s (%s)", info.Name, info.State, info.Failure)
		}
		wantLong[info.Name] = info.Digest
	}
	ctrl2.Drain()

	drainCfg := serveConfig(spool("drain"))
	drainCfg.Workers = 2
	sv1, err := serve.New(drainCfg)
	if err != nil {
		return err
	}
	for i := 0; i < longN; i++ {
		name, src := longSrc(i)
		if _, err := sv1.Submit(name, src); err != nil {
			return err
		}
	}
	time.Sleep(50 * time.Millisecond) // let the pool get mid-run
	sv1.Drain()
	suspended := 0
	for _, s := range sv1.List() {
		if s.Info().State == serve.StateSuspended {
			suspended++
		}
	}
	sv2, err := serve.New(drainCfg)
	if err != nil {
		return err
	}
	adopted := sv2.Stats().Adopted
	for _, s := range sv2.List() {
		<-s.Done()
		info := s.Info()
		if info.State != serve.StateDone {
			return fmt.Errorf("re-adopt: %s: %s (%s: %s)", info.Name, info.State, info.FailureClass, info.Failure)
		}
		if info.Digest != wantLong[info.Name] {
			return fmt.Errorf("re-adopt: %s: resumed digest %s != control %s",
				info.Name, info.Digest, wantLong[info.Name])
		}
	}
	sv2.Drain()
	fmt.Fprintf(w, "serve drain: %d suspended, %d re-adopted, resumed digests match control\n",
		suspended, adopted)
	return nil
}
