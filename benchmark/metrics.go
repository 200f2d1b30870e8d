package main

// The declared metrics and workloads. BENCHMARK.json at the repository
// root lists the same names, units and directions (a test compares the
// two); bounds live only in BENCHMARK.json.

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
}

// endToEndMetrics: what a user of the simulator waits for, all in host
// time, every one reported by every workload's untraced run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"node_cycles_per_s", "1/s", "higher"},
}

// perLayerMetrics: one layer each, reported by every workload's traced
// run (0 where the workload does not reach the layer). The layer is the
// prefix before the first dot.
var perLayerMetrics = []metricDef{
	// Exact simulated statistics: identical between commits for any
	// speed-only change.
	{"sim_cycles", "cycles", "lower"},
	{"chip.insts", "count", "lower"},
	{"chip.ops", "count", "lower"},
	{"digest", "hash48", "lower"},
	{"noc.injected", "count", "lower"},
	{"noc.delivered", "count", "lower"},
	{"noc.hops", "count", "lower"},
	{"mem.ltlb_faults", "count", "lower"},
	{"trace.events_per_kcycle", "1/kcycle", "lower"},
	{"core.table1_max_rel_err", "ratio", "lower"},
	// Traced driver: host time per call and call counts.
	{"chip.step_ns", "ns", "lower"},
	{"chip.steps", "count", "lower"},
	{"chip.skip_ns", "ns", "lower"},
	{"noc.step_ns", "ns", "lower"},
	{"noc.steps", "count", "lower"},
	{"machine.scan_ns", "ns/cycle", "lower"},
	{"machine.drain_ns", "ns/cycle", "lower"},
	{"machine.note_ns", "ns/cycle", "lower"},
	{"machine.ff_jumps", "count", "lower"},
	{"machine.ff_cycles", "cycles", "higher"},
	{"machine.busy_cycles", "cycles", "lower"},
	{"machine.par_node_cycles_per_s", "1/s", "higher"},
	{"machine.par_ratio", "ratio", "higher"},
	{"machine.alloc_bytes_per_kcycle", "B/kcycle", "lower"},
	{"machine.allocs_per_kcycle", "1/kcycle", "lower"},
	// Isolated probes.
	{"mem.access_ns.hit", "ns", "lower"},
	{"mem.access_ns.miss", "ns", "lower"},
	{"mem.access_ns.ltlb_miss", "ns", "lower"},
	{"noc.msg_hop_ns", "ns", "lower"},
	// Snapshots.
	{"snap.save_ns", "ns", "lower"},
	{"snap.restore_ns", "ns", "lower"},
	{"snap.fork_ns", "ns", "lower"},
	{"snap.bytes", "B", "lower"},
	// Front ends.
	{"wdsl.compile_us", "us", "lower"},
	{"asm.assemble_us", "us", "lower"},
	// Service.
	{"serve.sessions_per_s", "1/s", "higher"},
	{"serve.submit_ms", "ms", "lower"},
	{"serve.wait_ms", "ms", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.spool_bytes", "B", "lower"},
	// Distributed engine.
	{"dist.exchanges_per_cycle", "1/cycle", "lower"},
	{"dist.exchange_us", "us", "lower"},
	{"dist.bytes_per_cycle", "B/cycle", "lower"},
	// Operation time as it was, interference included: the untraced
	// operations of the traced run.
	{"op_p50_ms", "ms", "lower"},
	{"op_p95_ms", "ms", "lower"},
	// Share of the traced operations' host time spent in each layer's spans.
	{"chip.time_share", "ratio", "lower"},
	{"machine.time_share", "ratio", "lower"},
	{"noc.time_share", "ratio", "lower"},
	{"snap.time_share", "ratio", "lower"},
	// The measurement itself.
	{"trace.overhead", "ratio", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"op_samples", "count", "higher"},
}

type workloadDef struct {
	Name string
	Why  string
	run  func(cfg runConfig) *result
}

func machineWorkload(gen func(seed uint64, sc scale) *simInput, parProbe bool) func(runConfig) *result {
	return func(cfg runConfig) *result {
		return runLoop(cfg, &machineLoop{in: gen(cfg.seed, cfg.scale), parProbe: parProbe})
	}
}

// workloads, in the order they run. The names are final: later issues
// cite them. (The issue's busy-alu-par is not a workload of its own: the
// parallel engine's host time on a shared 2-CPU sandbox is bimodal by a
// factor of 2.7, which no bound could gate; busy-alu's traced run runs
// the identical input on it and reports machine.par_* instead.)
var workloads = []workloadDef{
	{"busy-alu", "32 nodes spinning ALU loops: chip issue and execute do all the work, mem and noc none; its traced run adds the parallel engine",
		machineWorkload(busyALUInput, true)},
	{"mem-stream", "strided load/store kernels over more memory than cache and LTLB hold: mem dominates, noc is idle",
		machineWorkload(memStreamInput, false)},
	{"msg-storm", "SEND storm over a multi-hop permutation: noc, message handlers, throttling and trace strings dominate",
		machineWorkload(msgStormInput, false)},
	{"idle-remote", "128 nodes, 4 active with far-remote dependent chains: NextEvent scans and per-chip idle loops dominate, issue is idle",
		machineWorkload(idleRemoteInput, false)},
	{"fork-sweep", "64 points of Fork, short storm, Save-digest from one staged machine: snap encode/decode dominates, stepping is minor",
		forkSweepWorkload},
	{"dist-shards", "8-node grid smoothing over two LocalLauncher shards: the per-cycle coordinator-worker exchange dominates",
		distShardsWorkload},
	{"serve-sessions", "closed loop of HTTP clients against the session service: admission, compile, sliced runs and fsynced checkpoints dominate",
		serveSessionsWorkload},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
