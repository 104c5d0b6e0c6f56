#!/usr/bin/env bash
# Every gate in one run: the docs gates, the tier-1 build and ctest
# under both wire codecs, the paper-shape and perf gates, the crash-point
# and chaos sweeps, and the robustness suites under ASan and TSan.
#
#   scripts/check.sh            # everything below
#   scripts/check.sh --fast     # docs gates + build + both ctest legs
#
# The tier-1 contract (ROADMAP.md): `cmake -B build -S . && cmake --build
# build -j && ctest` must pass. The perf gates each run one bench that
# exits non-zero when its bound fails and rewrites its checked-in
# BENCH_*.json, so git history is the perf trajectory: query cache,
# overload, tenant isolation, batch service, vectorized executor, wire
# protocol and XML-RPC codec; the trace-overhead gate prints its result
# instead. On top of that, the fault-injection and
# integrity tests exercise enough pointer-heavy recovery paths (manifest
# rewrites, quarantine swaps, mid-run aborts), and the codec fuzzers
# enough untrusted bytes, that they are worth a second run under
# AddressSanitizer; the concurrent suites (query cache on the parallel
# sub-query fan-out, admission, tenants, batch jobs, executor) run under
# ThreadSanitizer.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== docs: metric catalog gate =="
scripts/check_metrics_docs.sh

echo "== docs: link + section reference gate =="
scripts/check_docs_links.sh

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)" >/dev/null

echo "== tier-1: ctest =="
ctest --test-dir build --output-on-failure

echo "== tier-1: ctest under GRIDDB_WIRE=binary =="
# The whole suite doubles as cross-codec conformance: every RPC-backed
# test must pass identically when clients negotiate the binary framing.
GRIDDB_WIRE=binary ctest --test-dir build --output-on-failure

if [[ "${1:-}" == "--fast" ]]; then
  echo "OK (fast mode: sanitizer + bench passes skipped)"
  exit 0
fi

echo "== paper gate: Table 1 + Fig 6 simulated times =="
# Both benches exit non-zero when a simulated ms drifts more than 0.1 ms
# from the calibrated value recorded in EXPERIMENTS.md (the paper shapes
# must stay exact whatever the execution path does).
./build/bench/bench_table1_response_time >/dev/null
./build/bench/bench_fig6_rows_scaling >/dev/null

echo "== perf gate: query cache bench =="
# Warm repeat queries must stay >= 5x faster than cold, and the cold path
# must stay byte-identical to a cache-disabled server (results land in
# BENCH_query_cache.json).
./build/bench/bench_ext_query_cache BENCH_query_cache.json

echo "== perf gate: overload / admission control bench =="
./build/bench/bench_ext_overload BENCH_overload.json

echo "== perf gate: tenant isolation bench =="
./build/bench/bench_ext_tenant_isolation BENCH_tenant_isolation.json

echo "== perf gate: batch service bench =="
./build/bench/bench_ext_batch_service BENCH_batch_service.json

echo "== perf gate: vectorized executor bench =="
# Cold 4-way join and the wide-ntuple scan must stay >= 3x faster than
# the row-at-a-time oracle (bench/row_executor_oracle.h), and so must each
# of fedbench's three local_scan shapes (range scan, BETWEEN, top-K) over
# a table stored in an engine::Database, with byte-identical output on
# every shape/batch size (results land in BENCH_vectorized.json).
./build/bench/bench_ext_vectorized BENCH_vectorized.json

echo "== perf gate: wire protocol bench =="
# Over the WAN the binary codec must move >= 3x fewer wire bytes and
# finish the response leg >= 2x faster on the wide-ntuple shape, the
# streamed path must land its first chunk before the full result, and
# fault-free XML-RPC responses must stay byte-identical to the
# tree-writer encoder (results land in BENCH_wire.json).
./build/bench/bench_ext_wan BENCH_wire.json

echo "== perf gate: trace overhead bench =="
# Spans stay free: tracing the Table 1 mix must cost < 5% median real
# time, change no virtual-clock cost (the traced forward's extra wire
# bytes aside), and the metrics fast path must not allocate.
./build/bench/bench_ext_trace_overhead >/dev/null

echo "== perf gate: XML-RPC codec bench =="
# The one-pass XML-RPC writer must emit the tree oracle's exact bytes
# (bench/xmlrpc_tree_oracle.h), both readers must return the original
# rows, and over the Fig 6 row counts encode and decode must each stay
# >= 2x faster than the tree codec (results land in BENCH_xml_codec.json).
./build/bench/bench_ext_xml_codec BENCH_xml_codec.json

echo "== crash injection: batch journal recovery sweep =="
# Kill the batch coordinator at every named point of its checkpoint
# protocol (see BatchJobManager::CrashHook) and require restart recovery
# to complete the job byte-identical with no re-executed checkpoints.
# `list` first: the sweep below must name real points, so enumerate them
# and fail loudly if the protocol grew one this list does not cover.
GRIDDB_CRASH_POINT=list ./build/tests/batch_service_test \
  --gtest_filter='*EnvDrivenCrashPointSweep*'
for point in staged:0 staged:3 checkpoint:0 checkpoint:4 checkpoint:6 \
             total:7 terminal:7; do
  echo "-- GRIDDB_CRASH_POINT=$point"
  GRIDDB_CRASH_POINT="$point" ./build/tests/batch_service_test \
    --gtest_filter='*EnvDrivenCrashPointSweep*' >/dev/null
done

echo "== chaos: whole-system seed sweep =="
# Composed storage faults + network faults + coordinator kills against a
# fault-free oracle (bench/chaos_harness.h). The tier-1 ctest pass above
# already ran the bounded tests/chaos_test seeds; the full >= 200 seed
# acceptance sweep is bench_ext_chaos (BENCH_chaos.json). A failing seed
# is printed by the runner — replaying it reproduces the exact schedule.
./build/bench/bench_ext_chaos BENCH_chaos.json >/dev/null

echo "== asan: build robustness suites =="
cmake -B /tmp/griddb_asan -S . -DGRIDDB_SANITIZE=address >/dev/null
cmake --build /tmp/griddb_asan -j"$(nproc)" --target \
  fault_tolerance_test etl_resume_test integrity_test \
  stage_property_test query_cache_test overload_test \
  tenant_isolation_test batch_service_test \
  vectorized_parity_test wire_codec_test \
  fault_fs_test chaos_test robustness_test xmlrpc_codec_test >/dev/null

echo "== asan: run =="
# chaos_test is the bounded chaos seed sweep (tests/chaos_test.cc): the
# same whole-system harness as bench_ext_chaos on a handful of seeds, so
# the crash/recover/quarantine paths run under the sanitizer in bounded
# time. A failing seed appears in the gtest SCOPED_TRACE output.
# robustness_test mutation-fuzzes the XML-RPC reader and the binary value
# decoder, and xmlrpc_codec_test drives the reader with 10^5-deep
# nesting, so both run under the sanitizer too.
for t in fault_tolerance_test etl_resume_test integrity_test \
         stage_property_test query_cache_test overload_test \
         tenant_isolation_test batch_service_test \
         vectorized_parity_test wire_codec_test \
         fault_fs_test chaos_test robustness_test xmlrpc_codec_test; do
  echo "-- $t"
  /tmp/griddb_asan/tests/"$t" >/dev/null
done

echo "== tsan: build + run cache + overload + tenant concurrency suites =="
# federation_property_test runs mixed local/remote plans, whose local
# sub-queries and remote server tasks share the fan-out pool;
# trace_propagation_test stamps spans from the ledgers those parallel
# branches fork.
cmake -B /tmp/griddb_tsan -S . -DGRIDDB_SANITIZE=thread >/dev/null
cmake --build /tmp/griddb_tsan -j"$(nproc)" --target \
  query_cache_test concurrency_test overload_test \
  tenant_isolation_test batch_service_test \
  vectorized_parity_test wire_codec_test chaos_test \
  federation_property_test trace_propagation_test >/dev/null
for t in query_cache_test concurrency_test overload_test \
         tenant_isolation_test batch_service_test \
         vectorized_parity_test wire_codec_test chaos_test \
         federation_property_test trace_propagation_test; do
  echo "-- $t"
  /tmp/griddb_tsan/tests/"$t" >/dev/null
done

echo "OK"
