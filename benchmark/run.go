package main

import (
	"fmt"
	"runtime"
	"time"
)

// runConfig selects one run: one workload, one seed, one measuring
// budget, traced or not.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    scale
	spans    string // when set, a traced run writes its raw spans here
	// minReps keeps a run going past its budget until this many
	// repetitions are complete (at least one always is); tests use it to
	// cover a traced and an untraced repetition in a very short run.
	minReps int
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run. An operation is the workload's unit
// of repeated work: one slice of simulated cycles, one fork point, one
// distributed scenario run, one session.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Sizes     map[string]int64  `json:"sizes"`
	Errors    []string          `json:"errors,omitempty"` // first few failure messages
}

func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// collect gathers what a run measures per layer. The tracer is nil in an
// untraced run, where only the set-up attribution is kept.
type collect struct {
	build  buildTimes
	t      *tracer
	drive  driveCounts
	allocs allocDelta
	layer  map[string]float64 // values a workload reports directly, by metric name
}

// opSample is one timed operation.
type opSample struct {
	nodeCycles int64 // simulated machine cycles x nodes
	wall       time.Duration
	// done: the repetition is complete; the next operation needs a set-up.
	done bool
	// partial: less work than the workload's regular operation (a slice
	// in which some thread has already finished), so not a sample.
	partial bool
}

// looper is a workload whose operations run one at a time on the calling
// goroutine (every workload but serve-sessions). A repetition is one
// set-up followed by operations until one reports done.
type looper interface {
	// setup brings the workload to the start of a timed region; it is
	// timed as one set-up sample.
	setup(c *collect) error
	// op runs the next operation, through the traced path when traced is
	// set (the same for all operations of a repetition). measureAlloc
	// brackets the timed region with runtime.ReadMemStats.
	op(c *collect, traced, measureAlloc bool) (opSample, error)
	// verify checks the operation just run (untimed).
	verify() error
	// state is the exact simulated outcome of the first repetition, which
	// every later one had to reproduce.
	state() simState
	// finish runs at the end of a traced run: the layer probes that need
	// this workload's own machine.
	finish(c *collect) error
	sizes() map[string]int64
}

// runLoop measures a looper for cfg.seconds of host time and reports the
// end-to-end metrics (untraced) or the per-layer metrics (traced).
func runLoop(cfg runConfig, l looper) *result {
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Metrics: map[string]metric{}, Sizes: l.sizes()}
	c := &collect{layer: map[string]float64{}}
	if cfg.trace {
		c.t = &tracer{keepRaw: cfg.spans != ""}
	}
	var setups, walls, rates, tracedWalls []float64
	deadline := now() + time.Duration(cfg.seconds*float64(time.Second))
	needSetup, traced := true, false
	completed := 0 // repetitions finished and verified
	for rep, i := 0, 0; now() < deadline || completed < max(1, cfg.minReps); i++ {
		if needSetup {
			// A traced run leaves every fourth repetition untraced, so that
			// tracing overhead and allocation are measured against the
			// same inputs in the same process.
			traced = cfg.trace && rep%4 != 0
			rep++
			// Collect the garbage of the previous repetition's verification
			// before timing the set-up, and the set-up's own before the
			// operations: a collection they triggered must not run into the
			// timed region of a workload that allocates nothing itself.
			runtime.GC()
			t0 := now()
			if err := l.setup(c); err != nil {
				res.Attempted++
				res.fail(fmt.Errorf("set-up: %w", err))
				break
			}
			setups = append(setups, (now() - t0).Seconds())
			runtime.GC()
			needSetup = false
		}
		if c.t != nil {
			c.t.op = int32(i)
		}
		s, err := l.op(c, traced, cfg.trace && !traced)
		res.Attempted++
		if err == nil {
			err = l.verify()
		}
		if err != nil {
			res.fail(err)
			if res.Failed >= 20 {
				break // broken, not noisy: stop instead of failing until the budget ends
			}
			needSetup = true
			continue
		}
		needSetup = s.done
		if s.done {
			completed++
		}
		switch {
		case s.partial:
		case traced:
			tracedWalls = append(tracedWalls, ms(s.wall))
		default:
			walls = append(walls, ms(s.wall))
			rates = append(rates, float64(s.nodeCycles)/s.wall.Seconds())
		}
	}
	res.Correct = res.Failed == 0
	if !cfg.trace {
		endToEnd(res, setups, rates)
		return res
	}
	c.layer["op_p50_ms"] = median(walls)
	c.layer["op_p95_ms"] = quantile(walls, 0.95)

	if completed > 0 {
		setExactLayers(c, l.state())
		if err := l.finish(c); err != nil {
			res.fail(fmt.Errorf("layer probes: %w", err))
		}
	}
	c.layer["op_samples"] = float64(len(walls) + len(tracedWalls))
	if u := median(walls); u > 0 {
		c.layer["trace.overhead"] = median(tracedWalls) / u
	}
	finishTraced(cfg, c, res)
	return res
}

// endToEnd fills the end-to-end metrics of an untraced run from its
// set-up times (seconds) and per-operation rates (node-cycles/s).
//
// Both are taken from the fast tail — the fastest fiftieth, fastQuantile —
// not the median. Host time in the sandbox this benchmark has to be
// steady in carries interference that only ever slows an operation down,
// by 1.3x to 2.2x, and holds for seconds at a time: the median of
// identical operations moved by 20 % between back-to-back runs and by 2x
// between quiet and busy minutes, while the fast tail of a run repeated
// within a few per cent (README, "Why the fast tail"). The operations
// compared are equal amounts of simulated work, so the fast tail is the
// code's cost with the least interference, and a change that makes the
// code slower moves it. The 2nd percentile rather than the single
// fastest, because operations that involve other goroutines (the
// collector during a fork, the shard workers) have lucky instances. The
// median and 95th percentile of operation time are per-layer metrics.
func endToEnd(res *result, setups, rates []float64) {
	res.Metrics["setup_s"] = metric{quantile(setups, fastQuantile), "s"}
	res.Metrics["node_cycles_per_s"] = metric{quantile(rates, 1-fastQuantile), "1/s"}
}

const fastQuantile = 0.02

// finishTraced completes a traced run: the workload-independent probes,
// the declared per-layer metrics, and the span log if one was asked for.
func finishTraced(cfg runConfig, c *collect, res *result) {
	commonProbes(cfg.seed, c, res)
	fillLayerMetrics(c, res)
	if cfg.spans != "" {
		if err := c.t.writeSpans(cfg.spans, cfg.workload); err != nil {
			res.fail(err)
		}
	}
	res.Correct = res.Failed == 0
}

// setExactLayers records the exact simulated statistics of a workload:
// identical between commits for any speed-only change.
func setExactLayers(c *collect, st simState) {
	c.layer["sim_cycles"] = float64(st.stats.Cycles)
	c.layer["chip.insts"] = float64(st.stats.Instructions)
	c.layer["chip.ops"] = float64(st.stats.Operations)
	c.layer["digest"] = digest48(st.digest)
	c.layer["noc.injected"] = float64(st.stats.MsgsInjected)
	c.layer["noc.delivered"] = float64(st.stats.MsgsDelivered)
	c.layer["noc.hops"] = float64(st.hops)
	c.layer["mem.ltlb_faults"] = float64(st.stats.LTLBFaults)
	if st.stats.Cycles > 0 {
		c.layer["trace.events_per_kcycle"] = 1000 * float64(st.events) / float64(st.stats.Cycles)
	}
}

// fillLayerMetrics turns the collected spans and counts into the declared
// per-layer metrics; anything a workload does not exercise reads 0.
func fillLayerMetrics(c *collect, res *result) {
	t, d := c.t, c.drive
	L := c.layer
	L["chip.step_ns"] = perUnit(t.total[spChipStep], d.chipSteps)
	L["chip.steps"] = float64(d.chipSteps)
	L["chip.skip_ns"] = perUnit(t.total[spChipSkip], d.chipSkips)
	L["noc.step_ns"] = perUnit(t.total[spNocStep], d.nocSteps)
	L["noc.steps"] = float64(d.nocSteps)
	L["machine.scan_ns"] = perUnit(t.total[spMachineScan], d.busyCycles)
	L["machine.drain_ns"] = perUnit(t.total[spMachineDrain], d.busyCycles)
	L["machine.note_ns"] = perUnit(t.total[spMachineNote], d.busyCycles)
	L["machine.ff_jumps"] = float64(d.ffJumps)
	L["machine.ff_cycles"] = float64(d.ffCycles)
	L["machine.busy_cycles"] = float64(d.busyCycles)
	if c.allocs.cycles > 0 {
		k := float64(c.allocs.cycles) / 1000
		L["machine.alloc_bytes_per_kcycle"] = float64(c.allocs.bytes) / k
		L["machine.allocs_per_kcycle"] = float64(c.allocs.mallocs) / k
	}
	if t.count[spSnapFork] > 0 {
		// A workload that forks and saves inside its operations reports
		// the spans around those calls instead of the probe's numbers.
		L["snap.fork_ns"] = t.perCall(spSnapFork)
		L["snap.save_ns"] = t.perCall(spSnapSave)
	}
	L["asm.assemble_us"] = perUnit(c.build.assemble, c.build.assembles) / 1000
	L["wdsl.compile_us"] = perUnit(c.build.compile, c.build.compiles) / 1000
	L["trace.coverage"] = t.coverage()
	if run := float64(t.total[spRun]); run > 0 {
		// Where the traced operations' time went, by layer.
		L["chip.time_share"] = float64(t.total[spChipStep]+t.total[spChipSkip]) / run
		L["machine.time_share"] = float64(t.total[spMachineScan]+t.total[spMachineDrain]+t.total[spMachineNote]) / run
		L["noc.time_share"] = float64(t.total[spNocStep]) / run
		L["snap.time_share"] = float64(t.total[spSnapFork]+t.total[spSnapSave]) / run
	}
	for _, def := range perLayerMetrics {
		res.Metrics[def.Name] = metric{L[def.Name], def.Unit}
	}
}

func perUnit(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// gomaxprocs pins the host parallelism the benchmark may use: min(nproc,
// 4). Serial workloads simulate on one goroutine; no workload uses more
// working goroutines or connections than this.
func gomaxprocs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}
