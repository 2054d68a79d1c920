#!/usr/bin/env bash
# Tier-1 + sanitizer gate, in the order CI runs it:
#
#   1. plain build, full ctest suite. It includes the HTTP front end's
#      fault storm,
#        HttpListenerChaos.FaultStormReconcilesExactlyAndShutsDownCleanly:
#      a seeded storm of injected accept failures and client-side
#      slow-loris, truncation and early disconnects, after which the
#      scheduler, listener-connection and sampling=all trace ledgers must
#      reconcile exactly, every exchange must end within 2x its deadline
#      envelope, and every worker must exit within the shutdown timeout.
#      Its suite carries the `sanitize` label, so stages 2 and 3 run the
#      same storm under TSan and ASan;
#   2. ThreadSanitizer build of the concurrency suites (pool fan-out,
#      shard equivalence, two-pass batch ingest, streaming ingest + fault
#      injection, insight cache + shard summaries) plus the differential
#      NLP harness, `ctest -L sanitize`;
#   3. AddressSanitizer build of the streaming/fault-injection suites —
#      the paths that stage, evict, quarantine and retry buffers are the
#      ones where a lifetime bug would hide — same `ctest -L sanitize`.
#   4. performance gates: bench/ci_gates times each gate's subject
#      against a control measured in the same process, so host speed and
#      heat-soak cancel out. Subject and control run interleaved in small
#      grains (A B B A ...), rounds come in mirrored pairs, and each gate
#      reads the median per-pair ratio control/subject against a floor
#      that is a constant in the driver. The ranges below are ten runs of
#      the unmodified tree and three runs of each mutation, on a 4-vCPU
#      VM shared with other tenants.
#
#      posts: subject 1-thread QueryService::ingest_posts of 120 K
#      synthetic posts; control the same texts through nlp::reference,
#      the frozen pre-fast-path pipeline. Unmodified 5.33-6.23 (median
#      5.56); floor 3.89 (0.7x the median). Catches the fused post path
#      disabled (PostScorer::fused_ forced false): 2.89-2.99, i.e. post
#      ingest ~1.9x slower.
#
#      scan: subject the engine's columnar engagement_curve over the
#      battery's 18 sweeps; control the frozen AoS row sweep, checked
#      bit-identical to the subject before any timing. Unmodified
#      3.75-4.32 (median 4.07; 2.82-3.40 before both sides' Binner1D got
#      the shared-count bin cell); floor 2.11. Catches the sweep kernel
#      reverted to per-row cols.record(r) binning: 0.86-1.00 (measured
#      before the bin cell change).
#
#      sweep: subject the engine's fused engagement_curves (a three-series
#      Binner1D: one count and three running means per bin) over the
#      battery's 18 sweeps, as six fused calls; control the same column
#      scan feeding a full RunningStats per bin and series, the bin cell
#      before it, checked bit-identical to the subject before any timing.
#      Unmodified 1.49-1.74 (median 1.58); floor 1.10. Catches Binner1D
#      reverted to a RunningStats per bin and series: 0.79-0.85.
#
#      tally: subject the engine's predicted-MOS tally over 12
#      boundary-cut windows (200 K sessions, no summaries), each row
#      predicted from the seven feature columns; control the same tally
#      through the per-record std::function overload, checked
#      bit-identical to the subject before any timing. Unmodified
#      3.57-4.17 (median 3.69); floor 2.58. Catches the column predictor
#      reverted to predict(cols.record(r)): 1.03-1.04.
#
#      insight: subject the engine's curves_and_tally (three engagement
#      curves and the predicted-MOS tally from one fan-out, one pass per
#      scanned shard) over the tally gate's 12 windows, latency 0-250 ms
#      in 12 bins (no summary holds that axis), summaries on and the
#      predicted sums fresh, as the service runs it; control the separate
#      engagement_curves + tally(&predictor) calls, checked bit-identical
#      (curves, all five Tally fields, shard visits) before any timing.
#      Unmodified 1.212-1.321 (median 1.283); floor 0.90 (0.7x the
#      median). Catches a fused pass that falls more than ~30 % behind
#      the two calls it replaced. It does NOT catch a plain de-fusion
#      (curves_and_tally calling the two fan-outs in turn reads
#      0.987-1.002, above the floor): at one thread the fusion gains
#      ~1.28x, and 0.7x of that sits below 1.0. The pass count is pinned
#      by a test instead, not by this floor:
#      FusedInsightScan.OpaqueFilterRunsOncePerSelectedRow counts the
#      filter's calls, and a de-fused scan calls it twice per row.
#
#      telemetry_ingest / telemetry_query: subject 200 K sessions + 30 K
#      posts ingested, and the 6-query scan-config battery submitted
#      through the QueryScheduler, on a live registry; control the same
#      work on Registry{false}, the kill switch. Floor 1/1.05 = 0.952,
#      i.e. at most 5 % overhead (design target <2 %). Unmodified
#      0.981-1.019 (ingest) and 0.988-1.016 (query); enabled vs enabled
#      reads 0.987-1.015 and 0.987-1.018. Catches a 10 % busy-wait added
#      to every enabled-side grain: 0.908-0.916 and 0.902-0.912.
#
#      The admission front-end's open-loop ledger smoke is a tier-1 test
#      now (the real-clock case of
#      QueryScheduler.MixedTenantStressReconcilesExactly), so stage 1
#      runs it.
#   5. wire-benchmark harness gate: `python3 usaasbench/run.py --test`
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

echo "==> performance gates: subject vs in-run control (bench/ci_gates)"
cmake --build build -j "${JOBS}" --target ci_gates
./build/bench/ci_gates

echo "==> bench harness: build usaasbench against src/ + its unit tests"
python3 usaasbench/run.py --test

echo "==> all checks passed"
