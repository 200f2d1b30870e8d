#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload, the evidence
# a speed claim needs (ROADMAP house rules): HEAD and the working tree
# (uncommitted edits included) are exported into sibling temporary
# directories, and N pairs of untraced 12 s runs of benchmark/run.sh
# alternate which side goes first. run.sh builds each side into its
# export's .bench_build/ before every run (from scratch the first time,
# from the cache after), outside the time the benchmark measures.
# Prints one line per run in the
# BENCH_<n>.pairs.txt format, then for node_cycles_per_s and setup_ms each
# side's median and quartiles and the change's pair wins. Last, one traced
# 3 s run per side (same seed) prints the simulated results side by side —
# digest, cycles, chip and network counts, LTLB faults, trace records per
# kcycle, snapshot bytes — beside the per-layer chip.step_ns,
# snap.fork_ns, snap.save_ns, snap.restore_ns, machine.drain_ns and
# machine.allocs_per_kcycle; the script exits 1 if any simulated result
# differs.
#
#   bash scripts/pairs.sh WORKLOAD [SEED] [N]
#   bash scripts/pairs.sh busy-alu 1 10      # the defaults after WORKLOAD
#
# Run from the root of the repository. Temporary directories go under
# $TMPDIR (default /tmp) and are removed on exit.
set -euo pipefail

workload=${1:?usage: scripts/pairs.sh WORKLOAD [SEED] [N]}
seed=${2:-1}
n=${3:-10}

rev=$(git rev-parse --short HEAD)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/change"
git archive "$rev" | tar -x -C "$tmp/parent"
git ls-files -z -c -o --exclude-standard |
	while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
	tar --null --no-recursion -T - -cf - | tar -x -C "$tmp/change"

# run SIDE PAIR: one untraced run, printed as a pairs line.
run() {
	local out
	out=$(cd "$tmp/$1" && bash benchmark/run.sh --workload "$workload" --seed "$seed" \
		--seconds 12 --trace 0 | tail -n 1)
	echo "$out" | awk -v head="$workload seed=$seed pair=$2 $1" '{
		match($0, /"node_cycles_per_s":\{"value":[^,}]*/); ncps = substr($0, RSTART + 29, RLENGTH - 29)
		match($0, /"setup_s":\{"value":[^,}]*/); setup = substr($0, RSTART + 19, RLENGTH - 19)
		match($0, /"attempted":[0-9]*/); att = substr($0, RSTART + 12, RLENGTH - 12)
		match($0, /"failed":[0-9]*/); failed = substr($0, RSTART + 9, RLENGTH - 9)
		correct = ($0 ~ /"correct":true/) ? "True" : "False"
		printf "%s %d %.4g %s %s %s\n", head, ncps, setup * 1000, att, failed, correct
	}'
}

echo "# $workload seed=$seed: parent $rev vs the working tree, $n pairs, --seconds 12 --trace 0, $(nproc) CPUs; the first side alternates"
echo "# columns: workload seed pair side node_cycles_per_s setup_ms attempted failed correct"
lines=()
for i in $(seq 1 "$n"); do
	if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
	for side in $order; do
		line=$(run "$side" "$i")
		echo "$line"
		lines+=("$line")
	done
done

# Medians and quartiles (linear interpolation between order statistics)
# per side, and the pairs the change won: on node_cycles_per_s (higher
# wins) and on setup_ms (lower wins).
printf '%s\n' "${lines[@]}" | awk '
	function q(a, k, p,   h, lo) { h = p * (k - 1) + 1; lo = int(h); return a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
	function summary(label, a, k, f,   i, j, t) {
		for (i = 2; i <= k; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		a[k + 1] = a[k]
		printf "# " label ": median " f ", quartiles " f " .. " f " (IQR " f ")\n", q(a, k, 0.5), q(a, k, 0.25), q(a, k, 0.75), q(a, k, 0.75) - q(a, k, 0.25)
		return q(a, k, 0.5)
	}
	{
		split($3, kv, "=")
		if ($4 == "parent") { pr[kv[2]] = $5; ps[kv[2]] = $6; par[++np] = $5; pset[np] = $6 }
		else { cr[kv[2]] = $5; cs[kv[2]] = $6; chg[++nc] = $5; cset[nc] = $6 }
	}
	END {
		for (i in pr) { if (cr[i] > pr[i]) wins++; if (cs[i] < ps[i]) swins++ }
		mp = summary("parent", par, np, "%d"); mc = summary("change", chg, nc, "%d")
		printf "# change won %d/%d pairs; median ratio change/parent %.3f\n", wins, np, mc / mp
		mp = summary("setup_ms parent", pset, np, "%.4g"); mc = summary("setup_ms change", cset, nc, "%.4g")
		printf "# change won %d/%d pairs on setup_ms (lower wins); median ratio change/parent %.3f\n", swins, np, mc / mp
	}'

# metric JSON NAME: one metric's value in a benchmark JSON line ("" if absent).
metric() {
	printf '%s\n' "$1" | grep -o "\"${2//./\\.}\":{\"value\":[^,}]*" | sed 's/.*://' || true
}

traced_parent=$(cd "$tmp/parent" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 3 --trace 1 | tail -n 1)
traced_change=$(cd "$tmp/change" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 3 --trace 1 | tail -n 1)
echo "# one traced run per side (--seconds 3 --trace 1): metric, parent, change"
differs=0
for m in digest sim_cycles chip.insts chip.ops noc.injected noc.delivered noc.hops \
	mem.ltlb_faults trace.events_per_kcycle snap.bytes; do
	a=$(metric "$traced_parent" "$m")
	b=$(metric "$traced_change" "$m")
	verdict=equal
	if [ -z "$a" ] || [ "$a" != "$b" ]; then
		verdict=DIFFERS
		differs=1
	fi
	printf '# %-26s %22s %22s  %s\n' "$m" "$a" "$b" "$verdict"
done
for m in chip.step_ns snap.fork_ns snap.save_ns snap.restore_ns machine.drain_ns machine.allocs_per_kcycle; do
	printf '# %-26s %22s %22s\n' "$m" "$(metric "$traced_parent" "$m")" "$(metric "$traced_change" "$m")"
done
exit "$differs"
