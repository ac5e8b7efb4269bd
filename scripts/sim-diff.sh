#!/bin/sh
# sim-diff.sh REV — check that the working tree's simulated outputs are
# byte-identical to those of revision REV.
#
# It builds clibench, tracebench, distbench, webbench, benchjson and
# examples/distributed twice — from a `git archive` of REV and from the
# working tree — runs the fidelity command list below with each build,
# and diffs every output pair. Only deterministic outputs are compared:
# the paper tables, the shared-queue, degraded-mode and availability
# command lines, and the simulated-only rows of benchjson's report.
# Sources, binaries and outputs land in .bench_build/sim-diff/.
#
# Exit status: 0 when every output matches, 1 on any difference (each
# differing pair's diff is printed), 2 on a build or run failure.
#
# Usage: scripts/sim-diff.sh REV   (or: make sim-diff REV=HEAD~)
set -eu

rev=${1:?usage: scripts/sim-diff.sh REV}
GO=${GO:-go}
root=$(git rev-parse --show-toplevel)
out=$root/.bench_build/sim-diff
rm -rf "$out"
mkdir -p "$out/src" "$out/base" "$out/head"

# A config that sets every store key, so the store options' JSON path
# and everything they switch on (sharded cache, write-back, the shared
# queue, faults, injection, retry, spares) are covered too.
cat > "$out/store-keys.json" <<'CFG'
{
  "cache_shards": 4,
  "writeback": 64,
  "writeback_batch": 32,
  "writeback_highwater": 128,
  "sched_policy": "sstf",
  "disk_queue": "shared",
  "faults": "slow:0@1ms+200us..5ms",
  "inject": "seed=7,rate=40,budget=4",
  "retry": "max=4,base=50us",
  "spares": 1
}
CFG

build() { # build SRC BIN
	(
		cd "$1"
		for c in clibench tracebench distbench webbench benchjson; do
			"$GO" build -o "$2/bin/$c" "./cmd/$c"
		done
		"$GO" build -o "$2/bin/distributed" ./examples/distributed
	) || exit 2
}
git -C "$root" archive "$rev" | tar -x -C "$out/src" || exit 2
echo "sim-diff: building $rev"
build "$out/src" "$out/base"
echo "sim-diff: building the working tree"
build "$root" "$out/head"

contention="-app Parallel -concurrent -shards 8 -disk-queue shared -sched sstf"
degraded="-app Parallel -workers 8 -concurrent -shards 8 -disk-queue shared -sched sstf -disks 4 -raid raid5 -faults fail:1@0s"
dist="-nodes 8 -servers 3 -requests 32 -deadline 5ms -retry max=3,base=200us"

# commands prints one "name|binary args" line per compared output.
commands() {
	cat <<CMDS
clibench-all|clibench -experiment all
clibench-all-store-keys|clibench -experiment all -config $out/store-keys.json
tracebench-tables|tracebench -tables
contention-w1|tracebench $contention -workers 1
contention-w4|tracebench $contention -workers 4
contention-w8|tracebench $contention -workers 8
contention-w1-detail|tracebench $contention -workers 1 -requests-detail
contention-w4-detail|tracebench $contention -workers 4 -requests-detail
contention-w8-detail|tracebench $contention -workers 8 -requests-detail
faults-dead|tracebench $degraded
faults-inject|tracebench $degraded -inject seed=7,rate=20,budget=4 -retry max=4,base=50us
faults-rebuild|tracebench $degraded -rebuild 1
avail-healthy|distbench $dist -curve=false
avail-kill|distbench $dist -net-faults kill:server0@20ms
avail-rebuild|distbench $dist -net-faults kill:server0@20ms -disks 3 -raid raid1 -faults fail:1@0s,fail:2@0s -spares 2 -rebuild 1,2 -curve=false
webbench-tables|webbench -mode tables
examples-distributed|distributed
CMDS
}

status=0
for side in base head; do
	echo "sim-diff: running the $side build"
	commands | while IFS='|' read -r name cmd; do
		# The word splitting of $cmd is intended: no argument has a space.
		# shellcheck disable=SC2086
		(cd "$out/$side" && ./bin/$cmd) > "$out/$side/$name.out" 2>&1 || {
			echo "sim-diff: $side $name failed:" >&2
			cat "$out/$side/$name.out" >&2
			exit 2
		}
	done || exit 2
	# benchjson's last three sections (sharedq_contention, fault_recovery,
	# availability) hold simulated quantities only; its other rows are
	# wall-clock measurements and are not compared.
	(cd "$out/$side" && ./bin/benchjson -out report.json) > /dev/null 2>&1 || exit 2
	sed -n '/"sharedq_contention"/,$p' "$out/$side/report.json" > "$out/$side/benchjson-sim.out"
done

for f in "$out"/base/*.out; do
	name=$(basename "$f")
	if ! diff -u "$f" "$out/head/$name"; then
		echo "sim-diff: $name differs" >&2
		status=1
	fi
done
if [ "$status" -eq 0 ]; then
	echo "sim-diff: $(ls "$out"/base/*.out | wc -l) outputs byte-identical to $rev"
fi
exit "$status"
