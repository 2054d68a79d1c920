#!/usr/bin/env bash
# Tier-1 + sanitizer gate, in the order CI runs it:
#
#   1. plain build, full ctest suite;
#   2. ThreadSanitizer build of the concurrency suites (pool fan-out,
#      shard equivalence, two-pass batch ingest, streaming ingest + fault
#      injection, insight cache + shard summaries) plus the differential
#      NLP harness, `ctest -L sanitize`;
#   3. AddressSanitizer build of the streaming/fault-injection suites —
#      the paths that stage, evict, quarantine and retry buffers are the
#      ones where a lifetime bug would hide — same `ctest -L sanitize`.
#   4. telemetry overhead gate: the throughput bench (reduced corpus)
#      compares a live metrics registry against the USAAS_TELEMETRY=off
#      kill switch and fails if batch-ingest overhead exceeds 5% (the
#      design target is <2%; the gate leaves headroom for timing noise
#      on loaded single-core CI hosts). The query battery runs through
#      the admission scheduler so request tracing (ID mint, trace
#      assembly, ring write) is inside the measured window; the same 5%
#      gate applies to the query column.
#   5. post-ingest regression gate: the bench's posts-only mode
#      (USAAS_BENCH_POSTS_ONLY=1, min over 3 reps) against the 1t
#      posts_per_sec recorded in BENCH_usaas_throughput.json; fails on a
#      >30% drop (the fresh-host baseline vs a host heat-soaked by the
#      preceding stages — measured sustained-load throttling is 20-30%;
#      the gate catches the ~8x fast-path-disabled cliff, not drift).
#      Only the 1t column gates — the multi-thread columns in the
#      recorded JSON are OVERSUBSCRIBED on single-core hosts and
#      measure queueing, not scaling.
#   6. scan-path regression gate: the bench's scan-only mode
#      (USAAS_BENCH_SCAN_ONLY=1, full-size corpus, min over 3 reps)
#      against the 1t queries_per_sec recorded under sharded_1t in
#      BENCH_usaas_throughput.json; fails on a >30% drop (a row-scan
#      revert is a ~4x cliff). Same 1t-only and heat-soak rationale as
#      the post gate.
#   7. admission front-end smoke: the bench's open-loop front-end mode
#      (USAAS_BENCH_FRONTEND_ONLY=1, reduced corpus, fixed arrival rate)
#      drives mixed-tenant traffic through the QueryScheduler. The bench
#      exits non-zero on any invariant breach; the gate re-asserts from
#      the printed line that admitted + degraded + shed + expired ==
#      submitted and that no query was shed while a degradable cached
#      insight existed (shed_with_degradable must be 0).
#   8. chaos smoke: the usaas_frontend example under USAAS_FAULT_SOCKET
#      runs the real HTTP listener on loopback through a seeded fault
#      storm (injected accept failures; client-side slow-loris,
#      truncation, early disconnects). The example exits non-zero — and
#      the gate re-asserts from the printed CHAOS line — if any ledger
#      (scheduler, listener connections, or the sampling=all trace ring
#      vs the scheduler's four-way ledger) fails to reconcile exactly, a
#      worker fails to exit within the shutdown timeout, or any request
#      outlives its deadline envelope by more than 2x.
#   9. wire-benchmark harness gate: `python3 usaasbench/run.py --test`
#      builds the benchmark (its own CMake project over src/, into
#      .bench_build) and runs its unit tests. The harness calls the
#      engine's public API directly, so a src/ signature change that
#      breaks the benchmark build fails here instead of surfacing only
#      when the benchmark pipeline runs.
#
# The sanitize suites are the tests tests/CMakeLists.txt tags `LABELS
# sanitize`; the same tag adds each to the `sanitize_tests` build target,
# so the list lives in one place. They carry USAAS_PARALLEL_FORCE=1 via
# their ctest ENVIRONMENT property, so parallel_for really fans out
# across the pool — even on single-core hosts where the oversubscription
# cap would otherwise run everything inline and TSan would have no races
# to check. Every test also carries a ctest TIMEOUT so a deadlock fails the
# gate instead of hanging it.
#
# Usage: scripts/check.sh [jobs]     (default: nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

echo "==> tier-1: configure + build (${JOBS} jobs)"
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"

echo "==> tier-1: ctest"
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "==> tsan: configure + build sanitize-labeled test targets"
cmake -B build-tsan -S . -DUSAAS_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "${JOBS}" --target sanitize_tests

echo "==> tsan: ctest -L sanitize"
ctest --test-dir build-tsan -L sanitize --output-on-failure -j "${JOBS}"

echo "==> asan: configure + build sanitize-labeled test targets"
cmake -B build-asan -S . -DUSAAS_SANITIZE=address >/dev/null
cmake --build build-asan -j "${JOBS}" --target sanitize_tests

echo "==> asan: ctest -L sanitize"
ctest --test-dir build-asan -L sanitize --output-on-failure -j "${JOBS}"

echo "==> telemetry: bench overhead gate (enabled vs USAAS_TELEMETRY=off)"
cmake --build build -j "${JOBS}" --target usaas_throughput
TELEMETRY_JSON=build/bench_telemetry_gate.json
USAAS_BENCH_SESSIONS=200000 USAAS_BENCH_POSTS=30000 \
  USAAS_BENCH_JSON="${TELEMETRY_JSON}" ./build/bench/usaas_throughput
INGEST_OVERHEAD=$(sed -n \
  's/^ *"ingest_overhead_pct": \(-\{0,1\}[0-9.eE+-]*\),*$/\1/p' \
  "${TELEMETRY_JSON}")
if [[ -z "${INGEST_OVERHEAD}" ]]; then
  echo "FATAL: ingest_overhead_pct missing from ${TELEMETRY_JSON}" >&2
  exit 1
fi
awk -v pct="${INGEST_OVERHEAD}" 'BEGIN {
  if (pct + 0.0 > 5.0) {
    printf "FATAL: telemetry ingest overhead %.2f%% exceeds the 5%% gate\n",
           pct > "/dev/stderr"
    exit 1
  }
  printf "telemetry ingest overhead %.2f%% (gate: 5%%)\n", pct
}'
# The query battery runs through the admission scheduler, so the enabled
# column carries the full per-request tracing path (ID mint, trace
# assembly, seqlock ring write) on top of spans + slow-log; same 5% gate.
QUERY_OVERHEAD=$(sed -n \
  's/^ *"query_overhead_pct": \(-\{0,1\}[0-9.eE+-]*\),*$/\1/p' \
  "${TELEMETRY_JSON}")
if [[ -z "${QUERY_OVERHEAD}" ]]; then
  echo "FATAL: query_overhead_pct missing from ${TELEMETRY_JSON}" >&2
  exit 1
fi
awk -v pct="${QUERY_OVERHEAD}" 'BEGIN {
  if (pct + 0.0 > 5.0) {
    printf "FATAL: tracing query overhead %.2f%% exceeds the 5%% gate\n",
           pct > "/dev/stderr"
    exit 1
  }
  printf "tracing query overhead %.2f%% (gate: 5%%)\n", pct
}'

BASELINE_JSON=BENCH_usaas_throughput.json
# One bench regression floor: the bench's single-stage mode
# (USAAS_BENCH_<PREFIX>=1, min over 3 reps) must reach 0.7x the 1t figure
# recorded in BENCH_usaas_throughput.json. Only the 1t columns gate — the
# 2t/8t columns are OVERSUBSCRIBED on single-core hosts. Floor factor
# 0.7, not 0.9: the recorded baseline comes from a fresh host, but by the
# time these stages run the host has been heat-soaked by ~8 minutes of
# builds, sanitizer suites and benches, and measured sustained-load
# throttling on the CI box is 20-30%. The gates exist to catch a fast
# path being structurally disabled (the ~8x post-scoring cliff, the ~4x
# row-scan revert), which a 30% floor still detects decisively;
# single-digit drift is below this host's noise floor either way.
#
# Usage: floor_gate <baseline object key> <field> <mode line prefix>
#                   <label> <unit> <printf precision>
floor_gate() {
  local key="$1" field="$2" prefix="$3" label="$4" unit="$5"
  local fmt="%.${6}f" guard baseline line current
  guard=$(printf '%s' "${prefix}" | tr 'A-Z_' 'a-z-')
  baseline=$(sed -n \
    "s/.*\"${key}\".*\"${field}\": \([0-9.eE+-]*\)[,}].*/\1/p" \
    "${BASELINE_JSON}")
  if [[ -z "${baseline}" ]]; then
    echo "FATAL: ${key} ${field} missing from ${BASELINE_JSON}" >&2
    exit 1
  fi
  line=$(env "USAAS_BENCH_${prefix}=1" ./build/bench/usaas_throughput \
    | grep "^${prefix} ${key} ")
  current=$(printf '%s\n' "${line}" \
    | sed -n "s/.*${field}=\([0-9.]*\).*/\1/p")
  if [[ -z "${current}" ]]; then
    echo "FATAL: ${guard} guard produced no parseable output" >&2
    exit 1
  fi
  awk -v cur="${current}" -v base="${baseline}" -v label="${label}" \
      -v unit="${unit}" -v fmt="${fmt}" 'BEGIN {
    floor = base * 0.7
    if (cur + 0.0 < floor) {
      printf "FATAL: %s 1t " fmt " %s is >30%% below the recorded " \
             "baseline " fmt " %s (floor " fmt ")\n", label, cur, unit, base, \
             unit, floor > "/dev/stderr"
      exit 1
    }
    printf "%s 1t " fmt " %s (baseline " fmt ", floor " fmt ")\n", label,
           cur, unit, base, floor
  }'
}

echo "==> post ingest: bench regression gate (posts-only, min of 3 reps)"
if [[ ! -f "${BASELINE_JSON}" ]]; then
  echo "FATAL: ${BASELINE_JSON} missing — run ./build/bench/usaas_throughput" >&2
  exit 1
fi
floor_gate sharded_2_pass_1t posts_per_sec POSTS_ONLY "post ingest" posts/s 0

echo "==> scan battery: bench regression gate (scan-only, min of 3 reps)"
# The scan-only mode uses the same default corpus size as the recorded
# sharded_1t run, so the figures are directly comparable.
floor_gate sharded_1t queries_per_sec SCAN_ONLY "scan battery" q/s 2

echo "==> front-end: open-loop admission smoke (degrade-before-shed gate)"
FRONTEND_LINE=$(USAAS_BENCH_FRONTEND_ONLY=1 \
  USAAS_BENCH_SESSIONS=40000 USAAS_BENCH_POSTS=5000 \
  ./build/bench/usaas_throughput | grep '^FRONTEND ')
printf '%s\n' "${FRONTEND_LINE}"
# The bench already exited 0 only if its in-process invariants held; parse
# the ledger out of the printed line and re-assert the two CI contracts
# independently: exact reconciliation, and the degrade-before-shed
# tripwire (nothing shed while a degradable cached insight existed).
ledger_field() {
  printf '%s\n' "${FRONTEND_LINE}" \
    | sed -n "s/.* ${1}=\([0-9]*\) .*/\1/p"
}
SUBMITTED=$(printf '%s\n' "${FRONTEND_LINE}" \
  | sed -n 's/^FRONTEND submitted=\([0-9]*\) .*/\1/p')
ADMITTED=$(ledger_field admitted)
DEGRADED=$(ledger_field degraded)
SHED=$(ledger_field shed)
EXPIRED=$(ledger_field expired)
TRIPWIRE=$(ledger_field shed_with_degradable)
if [[ -z "${SUBMITTED:-}" || -z "${EXPIRED:-}" || -z "${TRIPWIRE:-}" ]]; then
  echo "FATAL: front-end smoke produced no parseable FRONTEND line" >&2
  exit 1
fi
if [[ "${TRIPWIRE}" -ne 0 ]]; then
  echo "FATAL: ${TRIPWIRE} queries shed while a degradable cached insight" \
       "existed (degrade-before-shed violated)" >&2
  exit 1
fi
if [[ $((ADMITTED + DEGRADED + SHED + EXPIRED)) -ne "${SUBMITTED}" ]]; then
  echo "FATAL: admission ledger does not reconcile:" \
       "${ADMITTED} + ${DEGRADED} + ${SHED} + ${EXPIRED} != ${SUBMITTED}" >&2
  exit 1
fi
echo "front-end ledger reconciles (${SUBMITTED} = ${ADMITTED} admitted +" \
     "${DEGRADED} degraded + ${SHED} shed + ${EXPIRED} expired); tripwire 0"

echo "==> chaos: HTTP listener fault-storm smoke (ledger + shutdown gate)"
cmake --build build -j "${JOBS}" --target usaas_frontend
CHAOS_LINE=$(USAAS_FAULT_SEED=42 \
  USAAS_FAULT_SOCKET='accept_fail=0.1,slow_read=0.05,slow_read_ms=200,partial=0.1,disconnect=0.1' \
  ./build/examples/usaas_frontend | grep '^CHAOS ')
printf '%s\n' "${CHAOS_LINE}"
# The example already exited 0 only if its invariants held; re-assert the
# three CI contracts independently from the printed line.
chaos_field() {
  printf '%s\n' "${CHAOS_LINE}" \
    | sed -n "s/.* ${1}=\([^ ]*\).*/\1/p"
}
C_SUBMITTED=$(printf '%s\n' "${CHAOS_LINE}" \
  | sed -n 's/^CHAOS submitted=\([0-9]*\) .*/\1/p')
C_ADMITTED=$(chaos_field admitted)
C_DEGRADED=$(chaos_field degraded)
C_SHED=$(chaos_field shed)
C_EXPIRED=$(chaos_field expired)
C_LISTENER=$(chaos_field listener_reconcile)
C_SHUTDOWN=$(chaos_field clean_shutdown)
C_RATIO=$(chaos_field max_deadline_ratio)
if [[ -z "${C_SUBMITTED:-}" || -z "${C_RATIO:-}" ]]; then
  echo "FATAL: chaos smoke produced no parseable CHAOS line" >&2
  exit 1
fi
if [[ $((C_ADMITTED + C_DEGRADED + C_SHED + C_EXPIRED)) -ne "${C_SUBMITTED}" ]]; then
  echo "FATAL: chaos admission ledger does not reconcile:" \
       "${C_ADMITTED} + ${C_DEGRADED} + ${C_SHED} + ${C_EXPIRED}" \
       "!= ${C_SUBMITTED}" >&2
  exit 1
fi
if [[ "${C_LISTENER}" != "ok" ]]; then
  echo "FATAL: listener connection ledger does not reconcile under faults" >&2
  exit 1
fi
# Trace-ledger reconciliation: the chaos run samples at sampling=all, so
# every submission the scheduler counted must have exactly one retained
# TraceRecord with the matching outcome ("off" is only legal when the
# telemetry kill switch disabled tracing entirely).
C_TRACES=$(chaos_field traces_reconcile)
if [[ "${C_TRACES}" != "ok" ]]; then
  echo "FATAL: trace ledger does not reconcile under faults" \
       "(traces_reconcile=${C_TRACES:-missing})" >&2
  exit 1
fi
if [[ "${C_SHUTDOWN}" != "yes" ]]; then
  echo "FATAL: a listener worker failed to exit within the shutdown timeout" >&2
  exit 1
fi
awk -v ratio="${C_RATIO}" 'BEGIN {
  if (ratio + 0.0 > 2.0) {
    printf "FATAL: a request outlived its deadline envelope %.3fx (gate: " \
           "2x)\n", ratio > "/dev/stderr"
    exit 1
  }
  printf "chaos smoke clean: worst request at %.3fx of its deadline " \
         "envelope (gate: 2x)\n", ratio
}'

echo "==> bench harness: build usaasbench against src/ + its unit tests"
python3 usaasbench/run.py --test

echo "==> all checks passed"
