#!/usr/bin/env bash
# Tier-1 CI: configure, build, and test from a clean checkout — proving the
# repo builds without any vendored build tree (build/ is gitignored).
#
# Usage: ./ci.sh [--sanitize] [--tsan] [--tidy] [--bench-smoke] [--soak]
#                [--help] [build-dir]
#                (default build dir: build; build-asan / build-tsan /
#                build-tidy under the respective flags)
#
#   --sanitize   build the suite with ASan+UBSan (see LDR_SANITIZE in
#                CMakeLists.txt) so pivot/pricing numerics bugs — tiny-pivot
#                divisions, stale-index reads in the incremental LP basis
#                inverse and FTRAN paths — surface as hard failures instead
#                of silent corruption. Uses build-asan as the default build
#                dir so a sanitized tree never masquerades as the plain one.
#   --tsan       build the suite with ThreadSanitizer (-DLDR_SANITIZE=tsan,
#                build dir build-tsan) and run the full ctest suite under it
#                — including tests/concurrency_test.cc, the dedicated
#                stressor for the thread-pool corpus fan-out, the Failpoint
#                registry hot path, PathStore's const-read contract, and
#                pool shutdown churn. Any TSan report is a hard failure
#                (halt_on_error=1).
#   --tidy       configure with compile_commands.json (build dir build-tidy)
#                and run clang-tidy (profile: .clang-tidy — bugprone-*,
#                performance-*, concurrency-*, selected cppcoreguidelines)
#                over src/ and tools/. Skipped with a notice when clang-tidy
#                is not installed: the container bakes in GCC only, and
#                installing packages is out of scope for CI.
#   --bench-smoke  after the tests, run the micro_lp warm-resolve bench
#                (BM_LpResolveWarm/50) and the micro_graph trace-replay
#                bench (BM_ReplayTraffic) once and bench_to_json in --smoke
#                mode, failing if any correctness marker in the emitted JSON
#                — lp_revised objective_parity, lp_lu / lp_pricing
#                kkt_certificate (every solve of the basis-size sweep and
#                of the pricing shapes carries a KKT optimality certificate
#                from the independent checker), scenario
#                placement_parity (the default run places bitwise like
#                the incremental=false cold reference in every epoch but
#                the dual-repaired ones), degradation recovery_parity,
#                survivability survivability_parity (replaying a failure
#                campaign from its seed installs bitwise-identical
#                placements) — is false.
#                Perf refactors cannot silently break the parity markers the
#                BENCH baseline stands on. Then runs the controller
#                benchmark (perfbench's ldr_bench) for 1 s on each workload
#                (steady_mux, cold_grid, failover, seed 1, untraced), then
#                steady_mux once more for 1 s traced (--trace 1), where the
#                benchmark's span mirror re-runs every epoch through the
#                public calls (its appraisal scans each series for its peak)
#                and must place bitwise like the controller (which carries
#                the per-epoch peaks); fails unless each result reports
#                "correct": true and "failed": 0.
#   --soak       implies --sanitize; after the suite, re-run the randomized
#                fault campaigns (fault_injection_test) and the seeded
#                correlated-failure campaign slice (campaign_test) with
#                LDR_SOAK=1 so the extended seed/topology schedules run
#                under ASan+UBSan. The fixed per-campaign seeds make every
#                failure replayable.
#   --help       print this usage block and exit.
#
# Every mode also configures and builds the controller benchmark
# (perfbench/, its own CMake package) into <build-dir>/perfbench, so a
# library API change that breaks the benchmark driver fails here.
set -euo pipefail
cd "$(dirname "$0")"

usage() { sed -n '/^# Usage:/,/^set /p' "$0" | grep '^#' | sed 's/^# \{0,1\}//'; }

SANITIZE=0
TSAN=0
TIDY=0
BENCH_SMOKE=0
SOAK=0
BUILD_DIR=""
for arg in "$@"; do
  case "$arg" in
    --help|-h)
      usage
      exit 0
      ;;
    --sanitize)
      SANITIZE=1
      ;;
    --tsan)
      TSAN=1
      ;;
    --tidy)
      TIDY=1
      ;;
    --bench-smoke)
      BENCH_SMOKE=1
      ;;
    --soak)
      SOAK=1
      SANITIZE=1
      ;;
    -*)
      echo "ci.sh: unknown flag '$arg'" >&2
      exit 2
      ;;
    *)
      if [ -n "$BUILD_DIR" ]; then
        echo "ci.sh: build dir given twice ('$BUILD_DIR', '$arg')" >&2
        exit 2
      fi
      BUILD_DIR="$arg"
      ;;
  esac
done

if [ "$SANITIZE" = 1 ] && [ "$TSAN" = 1 ]; then
  echo "ci.sh: --sanitize (ASan) and --tsan are mutually exclusive" >&2
  exit 2
fi

if [ -z "$BUILD_DIR" ]; then
  if [ "$TSAN" = 1 ]; then BUILD_DIR=build-tsan
  elif [ "$TIDY" = 1 ]; then BUILD_DIR=build-tidy
  elif [ "$SANITIZE" = 1 ]; then BUILD_DIR=build-asan
  else BUILD_DIR=build; fi
fi

# CI semantics: always start from a cold configure, so a stale vendored
# build tree can never fake a passing clean build.
if [ -e "$BUILD_DIR/CMakeCache.txt" ]; then
  echo "ci.sh: removing existing $BUILD_DIR for a cold configure" >&2
  rm -rf "$BUILD_DIR"
fi

CMAKE_ARGS=()
if [ "$SANITIZE" = 1 ]; then
  CMAKE_ARGS+=(-DLDR_SANITIZE=asan)
  # Make UBSan abort (and print) instead of silently continuing.
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
  export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}"
fi
if [ "$TSAN" = 1 ]; then
  CMAKE_ARGS+=(-DLDR_SANITIZE=tsan)
  # Any race report fails the run; second_deadlock_stack makes lock-order
  # reports actionable.
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
fi
if [ "$TIDY" = 1 ]; then
  CMAKE_ARGS+=(-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"
cmake -S perfbench -B "$BUILD_DIR/perfbench"
cmake --build "$BUILD_DIR/perfbench" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

if [ "$TIDY" = 1 ]; then
  # clang-tidy pass over the first-party sources (profile: .clang-tidy).
  # Gated on availability: the image bakes in GCC only, and CI must not
  # install packages — absent tooling is a visible skip, never a fake pass.
  if command -v clang-tidy >/dev/null 2>&1; then
    mapfile -t TIDY_SOURCES < <(git ls-files 'src/*.cc' 'tools/*.cc')
    clang-tidy -p "$BUILD_DIR" --quiet "${TIDY_SOURCES[@]}"
    echo "ci.sh: clang-tidy OK (${#TIDY_SOURCES[@]} files)" >&2
  else
    echo "ci.sh: clang-tidy not installed — tidy step SKIPPED" >&2
  fi
fi

# Scenario determinism probe: the ScenarioEngine is serial by design and
# must produce byte-identical reports at any LDR_THREADS setting. The
# walkthrough prints a full failure/recovery/surge timeline, and
# survivability_bench the seeded correlated-failure campaigns under LDR, B4
# and SP — Yen under KSP-cache eviction included (timings go to stderr, so
# stdout is diffable).
PROBE_1=$(mktemp)
PROBE_4=$(mktemp)
trap 'rm -f "$PROBE_1" "$PROBE_4"' EXIT
for probe in scenario_walkthrough survivability_bench; do
  LDR_THREADS=1 "$BUILD_DIR/$probe" > "$PROBE_1" 2>/dev/null
  LDR_THREADS=4 "$BUILD_DIR/$probe" > "$PROBE_4" 2>/dev/null
  if ! diff -u "$PROBE_1" "$PROBE_4" >&2; then
    echo "ci.sh: scenario determinism probe FAILED ($probe, LDR_THREADS=1 vs 4)" >&2
    exit 1
  fi
done
echo "ci.sh: scenario determinism probe OK (scenario_walkthrough, survivability_bench)" >&2

if [ "$SOAK" = 1 ]; then
  # Fault-campaign soak: the randomized (but seed-fixed, replayable) fault
  # schedules of fault_injection_test, extended by LDR_SOAK=1 to the full
  # seed range, under the sanitizers — ladder recovery paths must be clean
  # of UB and heap errors, not just functionally correct.
  LDR_SOAK=1 "$BUILD_DIR/fault_injection_test" \
      --gtest_filter='FaultInjectionTest.FaultCampaignSoak' >&2
  echo "ci.sh: sanitized fault-campaign soak OK" >&2
  # Correlated-failure campaign soak: the widened seeded survivability
  # slice (SRLG cuts, node outages, maintenance drains, optimizer fault
  # windows armed) with replay-parity checks, under the same sanitizers.
  LDR_SOAK=1 "$BUILD_DIR/campaign_test" \
      --gtest_filter='CampaignTest.SurvivabilityCampaignSoak' >&2
  echo "ci.sh: sanitized survivability-campaign soak OK" >&2
fi

if [ "$BENCH_SMOKE" = 1 ]; then
  # Bench smoke: the solver microbench must run, and the JSON correctness
  # markers must all be true. bench_to_json --smoke skips the slow corpus
  # sections but computes every parity flag for real.
  "$BUILD_DIR/micro_lp" --benchmark_filter='BM_LpResolveWarm/50' \
      --benchmark_min_time=0.05 >&2
  "$BUILD_DIR/micro_graph" --benchmark_filter='BM_ReplayTraffic' \
      --benchmark_min_time=0.05 >&2
  SMOKE_JSON=$(mktemp)
  trap 'rm -f "$PROBE_1" "$PROBE_4" "$SMOKE_JSON"' EXIT
  "$BUILD_DIR/bench_to_json" --smoke "$SMOKE_JSON" >&2
  for marker in objective_parity kkt_certificate placement_parity \
      recovery_parity survivability_parity; do
    if grep -q "\"$marker\": false" "$SMOKE_JSON"; then
      echo "ci.sh: bench smoke FAILED ($marker is false)" >&2
      exit 1
    fi
    if ! grep -q "\"$marker\": true" "$SMOKE_JSON"; then
      echo "ci.sh: bench smoke FAILED ($marker missing from JSON)" >&2
      exit 1
    fi
  done
  for run in steady_mux:0 cold_grid:0 failover:0 steady_mux:1; do
    workload=${run%:*}
    trace=${run#*:}
    RESULT=$("$BUILD_DIR/perfbench/ldr_bench" --workload "$workload" \
        --seed 1 --seconds 1 --trace "$trace" | tail -n 1)
    echo "$RESULT" >&2
    if ! grep -q '"correct": true' <<<"$RESULT" || \
        ! grep -q '"failed": 0,' <<<"$RESULT"; then
      echo "ci.sh: bench smoke FAILED (ldr_bench $workload --trace $trace)" >&2
      exit 1
    fi
  done
  echo "ci.sh: bench smoke OK (objective/kkt/placement/recovery/survivability markers true;" \
      "ldr_bench steady_mux/cold_grid/failover and traced steady_mux correct," \
      "0 failed ops)" >&2
fi
