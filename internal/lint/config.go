package lint

// Package scoping for the determinism analyzers (DESIGN.md, "Static
// analysis"). The split follows the architecture's one load-bearing
// boundary: simulated state vs. supervision. Everything that can touch
// simulated state must be bit-deterministic across engine modes;
// everything that watches wall clocks, spawns monitors, or talks to the
// OS lives in the supervision packages (guard, serve, dist
// coordination, faultinject) and the command front ends.

import "strings"

// simCritical is the set of packages on the simulation path: map
// iteration order, wall time, and scheduler interleavings here can
// reach simulated state and break the cross-engine bit-identity matrix.
// internal/dist is included for detrange because the worker stepping
// and frame encode/decode paths feed simulated state (the coordinator's
// recovery must replay bit-identically too). internal/wgen is included
// because a seed must name the same generated scenario on every host,
// forever — the generator is part of the reproducibility contract
// behind `msim -gen-seed`.
var simCritical = []string{
	"repro/internal/chip",
	"repro/internal/cluster",
	"repro/internal/core",
	"repro/internal/dist",
	"repro/internal/events",
	"repro/internal/gtlb",
	"repro/internal/isa",
	"repro/internal/machine",
	"repro/internal/mem",
	"repro/internal/noc",
	"repro/internal/wgen",
}

// wallClockAllowed is the allowlist of package paths where wall time
// and OS-driven timing are legitimate: supervision owns deadlines,
// watchdogs and backoff; the command front ends measure
// wall time for reporting; the analyzer suite itself is tooling.
// Everything else under internal/ is checked — simulated time is the
// machine clock, never the host's.
var wallClockAllowed = []string{
	"repro/internal/dist",
	"repro/internal/faultinject",
	"repro/internal/guard",
	"repro/internal/lint",
	"repro/internal/serve",
	"repro/cmd",
}

// goAllowed is the allowlist of package paths where spawning goroutines
// is legitimate wholesale: guard monitors, serve's session workers and
// HTTP plumbing. The machine and core start none. dist's in-process
// worker and process reaper are NOT allowlisted — those sites carry
// individual //mlint:allow annotations, so any new goroutine near them
// still has to justify itself.
var goAllowed = []string{
	"repro/internal/guard",
	"repro/internal/lint",
	"repro/internal/serve",
}

// pkgIn reports whether path is pkg or a subpackage of pkg for any
// entry in list.
func pkgIn(path string, list []string) bool {
	for _, p := range list {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
