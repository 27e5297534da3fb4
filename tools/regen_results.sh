#!/bin/sh
# Regenerate results/repro_outputs.txt and results/exp_outputs.txt from the
# built benches.  Run from the repo root after a full build:
#
#   cmake -B build -S . && cmake --build build -j
#   tools/regen_results.sh [build_dir]
#   tools/regen_results.sh --check [build_dir]
#
# repro_* benches reproduce the paper's exact artifacts (Part A of
# EXPERIMENTS.md); exp_* benches are the quantitative sweeps (Part B/D).
# Every bench is seeded and deterministic, so these files only change when
# the code's behavior does — diffs in them belong in the PR that caused them.
#
# --check regenerates the two text files into a temp dir instead, compares
# them byte for byte with results/, and exits 1 on any difference.  It
# writes nothing under results/ and skips the wall-clock BENCH_*.json files
# and the equivalence drives below.
set -eu

check=false
if [ "${1:-}" = "--check" ]; then
  check=true
  shift
fi
build="${1:-build}"
if [ ! -d "$build/bench" ]; then
  echo "error: $build/bench not found; build first (see header)" >&2
  exit 1
fi

run_group() {
  out="$1"
  shift
  : > "$out"
  for name in "$@"; do
    echo "===== build/bench/$name ====="
    "$build/bench/$name"
  done > "$out"
  echo "wrote $out"
}

repro_benches="repro_table1 repro_table2 repro_fig1_fig2 repro_fig3_fig6
  repro_fig7"
exp_benches="exp_delays exp_false_causality exp_buffering exp_metadata exp_ws
  exp_loss exp_partial exp_crash"

if $check; then
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  # Word splitting of the bench lists is intended.
  # shellcheck disable=SC2086
  run_group "$tmp/repro_outputs.txt" $repro_benches
  # shellcheck disable=SC2086
  run_group "$tmp/exp_outputs.txt" $exp_benches
  status=0
  for name in repro_outputs.txt exp_outputs.txt; do
    if cmp "$tmp/$name" "results/$name"; then
      echo "byte-identical: results/$name"
    else
      echo "differs: results/$name" >&2
      status=1
    fi
  done
  exit "$status"
fi

# shellcheck disable=SC2086
run_group results/repro_outputs.txt $repro_benches
# shellcheck disable=SC2086
run_group results/exp_outputs.txt $exp_benches

# The hot-path baseline (docs/PERF.md): measured drain/broadcast numbers in
# machine-readable form.  Wall-clock figures vary with the host; the structural
# columns (drain_scans, purges_avoided, bytes copied) are deterministic.
"$build/bench/micro_core" --benchmark_min_time=0.01 \
  --bench-json results/BENCH_core.json > /dev/null
echo "wrote results/BENCH_core.json"

# The socket-tier baseline (docs/NETWORK.md): loopback frame RTT and one-way
# throughput.  Wall-clock numbers; expect host-to-host variance.
"$build/bench/exp_net" --bench-json results/BENCH_net.json > /dev/null
echo "wrote results/BENCH_net.json"

# The durability baseline (docs/DURABILITY.md): WAL append/replay throughput
# per fsync policy and snapshot spill cost.  Wall-clock numbers; expect
# host-to-host variance.
"$build/bench/exp_storage" --bench-json results/BENCH_storage.json > /dev/null
echo "wrote results/BENCH_storage.json"

# The chaos baseline (docs/FAULTS.md): nemesis schedules × drop rates over a
# forked cluster.  Wall-clock columns vary with the host; the fault counters
# are seeded and deterministic.
"$build/bench/exp_chaos" --bench-json results/BENCH_chaos.json > /dev/null
echo "wrote results/BENCH_chaos.json"

# The partial-replication / subscription-routing baseline (docs/NETWORK.md):
# ShardedOptP's chained-placement bytes-by-factor, message-floor and shard-
# scaling cells.  Fully seeded and simulated — every column is deterministic,
# and the bench itself gates msgs == Xiang–Vaidya floor, zero cross-shard
# receipts and (factor sweep) zero unnecessary delays — nonzero exit on
# violation.
"$build/bench/exp_partial" --bench-json results/BENCH_partial.json > /dev/null
echo "wrote results/BENCH_partial.json"

# The typed-object baseline (docs/OBJECTS.md): the same register workload on
# the seed path and through the typed machinery (wall-clock columns must stay
# within noise), plus per-spec workloads under the SpecChecker.  The bench
# itself gates structural equality of the two register rows and every
# consistency verdict (nonzero exit on violation).
"$build/bench/exp_objects" --bench-json results/BENCH_objects.json > /dev/null
echo "wrote results/BENCH_objects.json"

# Schema guard: docs/PERF.md and anything downstream key on these table
# names and column headers; a bench refactor that renames or drops one must
# fail here, not silently regenerate a JSON missing the cell.
require_table() {
  file="$1"; table="$2"; shift 2
  for field in "$@"; do
    if ! jq -e --arg t "$table" --arg f "$field" \
        '.tables[$t][0] | has($f)' "$file" > /dev/null 2>&1; then
      echo "schema guard: $file table \"$table\" is missing field \"$field\"" >&2
      exit 1
    fi
  done
}
require_table results/BENCH_net.json \
  "loopback frame round-trip (2 transports, 1 loop)" \
  "payload (B)" "rtt p50 (us)" "rtt p99 (us)"
require_table results/BENCH_net.json \
  "loopback one-way throughput (drained)" \
  "payload (B)" "msgs/s" "MB/s"
require_table results/BENCH_net.json \
  "shard ring mesh one-way throughput (SPSC burst/drain)" \
  "payload (B)" "msgs/s" "M msgs/s"
require_table results/BENCH_storage.json \
  "WAL append throughput (256 B records, final sync included)" \
  "fsync" "appends/s" "fsyncs"
require_table results/BENCH_storage.json \
  "WAL group-commit throughput (256 B records, fsync=interval)" \
  "tick (records)" "appends/s" "fsyncs" "group commits"
require_table results/BENCH_partial.json \
  "exp_partial_by_factor" \
  "factor" "net bytes" "bytes/write" "vs full (%)"
require_table results/BENCH_partial.json \
  "exp_partial_subscription" \
  "groups" "subs/var" "msgs/write" "floor/write" "floor hit" "cross receipts"
require_table results/BENCH_partial.json \
  "exp_shard_scaling" \
  "procs" "shards" "msgs/write" "full-group msgs/write" "cross receipts" \
  "speedup vs 4p"
require_table results/BENCH_objects.json \
  "exp_objects_register_overhead" \
  "path" "ops" "writes" "delayed" "ops/s" "overhead (%)" "consistent"
require_table results/BENCH_objects.json \
  "exp_objects_by_spec" \
  "objects" "mutations" "accessors" "lin states" "consistent"
echo "bench JSON schema guard: PASS"

# Loopback equivalence acceptance: a forked 3-process cluster must produce an
# observer-event log byte-identical to the simulator's on the H1 script.
if "$build/tools/optcm" drive --script=h1 --spawn=3 --compare-sim \
    > /dev/null; then
  echo "loopback equivalence check: PASS (drive --script=h1 --compare-sim)"
else
  echo "loopback equivalence check: FAIL" >&2
  exit 1
fi

# Typed-object equivalence acceptance (docs/OBJECTS.md): the five-spec demo
# script over a forked cluster must merge into a SpecChecker-consistent run
# whose observer events are byte-identical to the simulator's.
if "$build/tools/optcm" drive --script=objects --compare-sim > /dev/null; then
  echo "typed-object equivalence check: PASS (drive --script=objects --compare-sim)"
else
  echo "typed-object equivalence check: FAIL" >&2
  exit 1
fi

# Shard equivalence acceptance: the same script packed into one OS process
# (all traffic over the SPSC ring mesh) must match the simulator too —
# sharding is a transport change only (docs/NETWORK.md).
if "$build/tools/optcm" drive --script=h1 --spawn=3 --shards-per-proc=3 \
    --compare-sim > /dev/null; then
  echo "shard equivalence check: PASS (drive --shards-per-proc=3 --compare-sim)"
else
  echo "shard equivalence check: FAIL" >&2
  exit 1
fi

# Group-commit equivalence acceptance: tick-edge WAL batching must not change
# observable behavior (docs/PERF.md).
if "$build/tools/optcm" drive --script=h1 --spawn=3 --wal-group-commit \
    --fsync=interval --compare-sim > /dev/null; then
  echo "group-commit equivalence check: PASS (drive --wal-group-commit --compare-sim)"
else
  echo "group-commit equivalence check: FAIL" >&2
  exit 1
fi

# Durability equivalence acceptance: SIGKILL node 0 mid-run, respawn it from
# its state dir, stitch its incarnations — the merged log must still match
# the simulator byte for byte.
if "$build/tools/optcm" drive --script=h1 --spawn=3 --time-scale=3000 \
    --kill-host=0@30 --respawn --compare-sim > /dev/null; then
  echo "kill -9 respawn equivalence check: PASS (drive --kill-host=0@30 --respawn)"
else
  echo "kill -9 respawn equivalence check: FAIL" >&2
  exit 1
fi

# Subscription-routing equivalence acceptance (docs/NETWORK.md): ShardedOptP
# over real sockets must match the simulator byte for byte — once under the
# full map (the OptP degeneration case) and once under a restricted explicit
# map, where each write reaches only its variable's subscribers.
if "$build/tools/optcm" drive --script=h1 --spawn=3 --protocol=optp-sharded \
    --subscriptions=full --compare-sim > /dev/null; then
  echo "subscription full-map equivalence check: PASS (drive --protocol=optp-sharded --subscriptions=full)"
else
  echo "subscription full-map equivalence check: FAIL" >&2
  exit 1
fi
if "$build/tools/optcm" drive --script=h1 --spawn=3 --protocol=optp-sharded \
    --subscriptions='0:0,1;1:1,2' --compare-sim > /dev/null; then
  echo "subscription routed equivalence check: PASS (drive --subscriptions=0:0,1;1:1,2)"
else
  echo "subscription routed equivalence check: FAIL" >&2
  exit 1
fi

# Chaos equivalence acceptance (docs/FAULTS.md): the seeded nemesis schedule —
# drop + reorder noise, an asymmetric partition, a SIGKILL crash, and a WAL
# fsync failpoint — run TWICE.  Both runs must reconcile to a merged log
# byte-identical to the simulator, and the printed fault event trace must be
# byte-identical across the two runs (the determinism contract of nemesis.h).
nemesis_spec='seed=7;drop=0.05;reorder=0.05;partition=1:2@15+30;crash=0@40;wal-fail=0:fsync@2'
trace_a=$(mktemp)
trace_b=$(mktemp)
trap 'rm -f "$trace_a" "$trace_b"' EXIT
for out in "$trace_a" "$trace_b"; do
  if ! "$build/tools/optcm" drive --script=h1 --spawn=3 --time-scale=3000 \
      --compare-sim --nemesis="$nemesis_spec" > "$out.full"; then
    echo "nemesis equivalence check: FAIL (run did not reconcile)" >&2
    exit 1
  fi
  # The determinism contract covers the fault event trace (socket timings and
  # tmp paths legitimately vary run to run).
  grep -E '^\+[0-9]+ms |^nemesis schedule' "$out.full" > "$out"
  rm -f "$out.full"
done
if cmp -s "$trace_a" "$trace_b"; then
  echo "nemesis chaos check: PASS (schedule ran twice, traces identical)"
else
  echo "nemesis chaos check: FAIL (fault traces differ between runs)" >&2
  diff "$trace_a" "$trace_b" >&2 || true
  exit 1
fi
