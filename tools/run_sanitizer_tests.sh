#!/usr/bin/env bash
# Build and run the sensitive test binaries under the configured sanitizers.
# Supersedes run_tsan_tests.sh (kept as a thin TSAN-only wrapper): this
# script also covers the fault-injection / integrity suites under
# UndefinedBehaviorSanitizer, where bit-twiddling CRC code, byte-flip
# corruption paths, and NaN-heavy sanitization are most likely to trip UB.
#
#   tools/run_sanitizer_tests.sh [thread|undefined|address|obsoff|all] \
#       [build-dir-prefix]
#
# `address` replays the wire-protocol fuzz/property suites (tests/net), the
# artifact-container / delta-codec fuzz suites (tests/artifact), the shared
# byte codec and format goldens (test_formats), the checkpoint and
# pipeline.meta decoders (test_nn Checkpoint*, test_clear Artifacts*), the
# checkpoint cache and int8 rebuild tests (test_serve CheckpointCache*,
# Server.Int8*) plus the fault suites under ASan+UBSAN — the frame decoder
# and the artifact codecs chew adversarial byte streams, exactly where an
# out-of-bounds read would hide. `obsoff`
# builds clear-cli with -DCLEAR_OBS=OFF and runs the serve smoke's golden
# comparison against it (instrumentation compiled out must not change a
# byte of output).
#
# Each sanitizer gets its own build directory (<prefix>-<sanitizer>) so the
# instrumented objects never mix. Exits non-zero on the first report
# (halt_on_error=1) or test failure.
set -euo pipefail

cd "$(dirname "$0")/.."
MODE="${1:-all}"
PREFIX="${2:-build}"

run_tsan() {
  local dir="${PREFIX}-tsan"
  cmake -B "$dir" -S . -DCLEAR_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$dir" -j --target test_parallel test_cluster test_fault \
    test_serve test_net
  export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
  # Force the pool onto multiple threads even on small machines so the
  # scheduler actually interleaves workers.
  export CLEAR_NUM_THREADS=4
  echo "== test_parallel (TSAN) =="
  "$dir/tests/test_parallel"
  echo "== test_cluster (TSAN) =="
  "$dir/tests/test_cluster"
  echo "== test_fault (TSAN) =="
  "$dir/tests/test_fault"
  # The trainer thread shares fine-tune jobs with the serving thread, and
  # the wire's event loop waits on its wake fd.
  echo "== test_serve (TSAN, trainer thread: start/commit, recovery) =="
  "$dir/tests/test_serve" --gtest_filter='Server.*:RecoveryTest*'
  echo "== test_net (TSAN, held frames behind a running fine-tune) =="
  "$dir/tests/test_net" --gtest_filter='Loopback.*:NetFault.*'
}

run_ubsan() {
  local dir="${PREFIX}-ubsan"
  cmake -B "$dir" -S . -DCLEAR_SANITIZE=undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$dir" -j --target test_fault test_common test_nn test_features \
    test_kernel_equivalence test_net test_serve test_delta test_formats test_edge
  export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
  echo "== test_fault (UBSAN) =="
  "$dir/tests/test_fault"
  echo "== test_formats (UBSAN, byte codec + format goldens) =="
  "$dir/tests/test_formats"
  echo "== test_serve (UBSAN, journal framing + crash-recovery replay, int8 cache rebuilds) =="
  "$dir/tests/test_serve" \
    --gtest_filter='JournalTest*:RecoveryTest*:CheckpointCache*:Server.Int8*'
  echo "== test_kernel_equivalence (UBSAN, SIMD + fp16/int8 bit paths) =="
  "$dir/tests/test_kernel_equivalence"
  echo "== test_net (UBSAN, wire-codec fuzz/property suites, loopback + deadline timer) =="
  "$dir/tests/test_net" --gtest_filter='Protocol*:Loopback.*'
  echo "== test_edge (UBSAN, per-row int8 state quantization) =="
  "$dir/tests/test_edge" --gtest_filter='EdgeEngine.Int8*'
  echo "== test_delta (UBSAN, artifact container + delta codec fuzz) =="
  "$dir/tests/test_delta"
  echo "== test_common (UBSAN) =="
  "$dir/tests/test_common"
  echo "== test_nn (UBSAN, checkpoint corruption paths) =="
  "$dir/tests/test_nn" --gtest_filter='Checkpoint*'
  echo "== test_features (UBSAN, NaN audit paths) =="
  "$dir/tests/test_features" --gtest_filter='*Audit*:Nonlinear*'
}

run_asan() {
  local dir="${PREFIX}-asan"
  cmake -B "$dir" -S . -DCLEAR_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$dir" -j --target test_net test_fault test_serve test_delta \
    test_formats test_nn test_clear
  export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
  export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
  echo "== test_net (ASAN, full wire suite: fuzzed decode, loopback, faults) =="
  "$dir/tests/test_net"
  echo "== test_fault (ASAN) =="
  "$dir/tests/test_fault"
  echo "== test_serve (ASAN, torn/corrupt journal tails + recovery, int8 cache rebuilds) =="
  "$dir/tests/test_serve" \
    --gtest_filter='JournalTest*:RecoveryTest*:CheckpointCache*:Server.Int8*'
  echo "== test_delta (ASAN, fuzzed containers + corrupt delta payloads) =="
  "$dir/tests/test_delta" \
    --gtest_filter='ArtifactStore.Fuzz*:ArtifactStore.Rejects*:DeltaCodec.Rejects*:DeltaCodec.RoundTrips*'
  echo "== test_formats (ASAN, byte codec + format goldens) =="
  "$dir/tests/test_formats"
  echo "== test_nn (ASAN, checkpoint decoder) =="
  "$dir/tests/test_nn" --gtest_filter='Checkpoint*'
  echo "== test_clear (ASAN, pipeline.meta decoder) =="
  "$dir/tests/test_clear" --gtest_filter='Artifacts*'
}

run_obsoff() {
  local dir="${PREFIX}-obsoff"
  cmake -B "$dir" -S . -DCLEAR_OBS=OFF -DCMAKE_BUILD_TYPE=Release
  cmake --build "$dir" -j --target clear-cli
  # The default-build CLI drives the metrics legs; the obs-off CLI must hit
  # the same prediction golden (run_serve_smoke.sh step 8). Absolute paths:
  # the smoke script runs from a scratch directory.
  local on_dir="${PREFIX}"
  if [ ! -x "$on_dir/tools/clear-cli" ]; then
    cmake -B "$on_dir" -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build "$on_dir" -j --target clear-cli
  fi
  local root
  root="$(pwd)"
  sh tools/run_serve_smoke.sh "$root/$on_dir/tools/clear-cli" \
    "$root/tools/metrics_schema.json" "$root/tools/serve_golden.txt" \
    "$root/$dir/tools/clear-cli"
}

case "$MODE" in
  thread)    run_tsan ;;
  undefined) run_ubsan ;;
  address)   run_asan ;;
  obsoff)    run_obsoff ;;
  all)       run_tsan; run_ubsan; run_asan; run_obsoff ;;
  *) echo "usage: $0 [thread|undefined|address|obsoff|all] [build-dir-prefix]" >&2
     exit 2 ;;
esac
echo "Sanitizer run clean."
