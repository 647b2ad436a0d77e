#!/usr/bin/env bash
# Tier-1 CI gate: fresh warnings-on -O2 build, full test suite, and an
# ASan+UBSan build of the test suite.  The sanitizer pass exists chiefly
# for the memory-hierarchy fast paths: raw-index access into the SoA tag
# arrays and the Cpu-side line buffers must never read stale or
# out-of-bounds host memory, and the sanitizers catch that class of bug
# where the bit-identity tests cannot (a wild read that happens to
# return the right answer).
#
# A TSan build then runs the concurrency shard — the async-toggle and
# optimizer-service tests plus a fixed-seed free-running chaos smoke —
# because the free-running optimizer worker is the one place real data
# races can live, and only TSan sees them (the deterministic barrier
# tests cannot).
#
# Exec-tier coverage (DESIGN.md §12): the direct-threaded superblock
# tier is the default, so every stage above already exercises it — the
# full ctest sweep includes the TierToggle/ExecTier bit-identity suite
# (and the ASan pass re-runs it with the executor's raw uop-array and
# scoreboard indexing instrumented), and the chaos smoke runs with the
# tier on.  The tier's performance gate is deterministic and lives in
# that sweep: every TierToggle case bounds its direct-tier run's block
# builds and evictions and requires block dispatches, so a block cache
# that thrashes or a tier that never forms blocks fails ctest on any
# host.  No CI step times the host.  Additions that keep both tiers
# honest: an interpreter-tier chaos smoke so the legacy dispatch path
# cannot rot unexercised, an explicit tier pin on the TSan free-running
# run so the executor's quiesce/patch interaction stays under the race
# detector, and an explicit ASan re-run of the region-keyed
# chaining/invalidation surface (ExecTier + TierToggle) since stale
# chain links are exactly the use-after-free shape ASan exists to
# catch.
#
# Hardware-prefetcher coverage (DESIGN.md §13): a --hwpf chaos smoke
# runs the zoo plus ADORE under the fault schedule (shared-bus
# arbitration soak), the ASan pass re-runs the Hwpf* shard with the
# engine's raw-index tables instrumented, and the --regen-experiments
# --check gate below also covers the generated hwpf_study block.
#
# Serving coverage (DESIGN.md §15): a fixed-seed 500-job adored soak
# with every service fault channel armed plus a mid-soak SIGTERM proves
# zero lost jobs and a clean drain against a one-shot oracle, a stdin
# protocol smoke covers the line-JSON surface, the ASan pass re-runs
# the Json/ResultCache/ServiceFault/Prom/Serve shard (untrusted-input
# parsing and cache splicing under instrumentation), and the TSan pass
# runs the ThreadPool/Serve shard plus a short fault soak so the
# drain-vs-submit and monitor-cancel races stay under the detector.
#
# Usage: scripts/ci.sh [build-dir]           (default: build-ci)
#   ADORE_CI_SKIP_SANITIZERS=1 skips the sanitizer builds (for very
#   slow or sanitizer-less hosts).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ci}"

GEN=()
if command -v ninja >/dev/null 2>&1; then
    GEN=(-G Ninja)
fi

cmake -B "$BUILD_DIR" -S . "${GEN[@]}" \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-O2 -Wall -Wextra"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure

# Chaos smoke: 3 workloads x 5 fixed fault seeds under the default
# moderate fault schedule, baseline vs ADORE+guardrails.  Fails when any
# run crashes, any metric set is self-inconsistent, or the guardrailed
# CPI exceeds the margin against the no-ADORE baseline (DESIGN.md §10).
# Runs once per execution tier: direct-threaded (the default) and the
# interpreter, so a tier-specific crash or guardrail miss fails CI no
# matter which tier a user has configured.  A third pass soaks the
# hardware-prefetcher zoo (--hwpf): both runs of every pair get the
# engines, so the CPI margin checks hw+ADORE against an hw-only
# baseline and the guardrail's shared-bus arbitration runs under the
# fault schedule (DESIGN.md §13).
"$BUILD_DIR"/tools/adore_chaos --smoke --max-cycles 8000000 \
    --exec-tier direct
"$BUILD_DIR"/tools/adore_chaos --smoke --max-cycles 8000000 \
    --exec-tier interpreter
"$BUILD_DIR"/tools/adore_chaos --smoke --hwpf --max-cycles 8000000 \
    --exec-tier direct

# Fuzz smoke (DESIGN.md §14): 50 fixed-seed generated programs through
# the full differential arm matrix — bit-identity across the promised
# toggles, self-consistency everywhere, guardrail CPI margin on the
# chaos pair, quietCycleLimit watchdog on every run.  Programs are
# deterministic functions of their seeds, so this gate is stable; a
# failure prints a JSON summary naming program/seed/arm.  The committed
# corpus reproducer must also still parse and hold its invariants.
"$BUILD_DIR"/tools/adore_fuzz --smoke
"$BUILD_DIR"/tools/adore_fuzz --replay corpus/gen_7.kernel

# Serving soak (DESIGN.md §15): 500 fixed-seed jobs through the adored
# daemon with every service-layer fault channel armed (queue stalls,
# worker aborts, cache corruption-on-read) plus a SIGTERM raised at the
# halfway mark.  The selftest then replays every unique job config
# through one-shot Experiment::run and fails unless each job either
# completed bit-identical to the oracle or dead-lettered with a
# machine-readable failure record — zero lost jobs, clean drain, exit 0.
"$BUILD_DIR"/tools/adored --selftest-soak 500 --service-faults \
    --seed 42 --sigterm-self
# Protocol smoke: drive the stdin/stdout server through a submit →
# wait → duplicate-submit (cache hit) → drain round trip and check the
# daemon answers every line and exits 0 on drain.
SERVE_OUT="$(printf '%s\n' \
    '{"op":"ping"}' \
    '{"op":"submit","workload":"gzip","opt":"o2"}' \
    '{"op":"wait","id":1}' \
    '{"op":"submit","workload":"gzip","opt":"o2"}' \
    '{"op":"wait","id":2}' \
    '{"op":"drain"}' \
    | "$BUILD_DIR"/tools/adored)"
echo "$SERVE_OUT" | grep -q '"op": *"ping"'
echo "$SERVE_OUT" | grep -q '"state": *"done"'
echo "$SERVE_OUT" | grep -q '"cache_hit": *true'
echo "$SERVE_OUT" | grep -q '"drained": *true'

# Docs-drift gates: EXPERIMENTS.md generated blocks must match fresh
# measurements (simulations are deterministic, so this is stable), and
# every relative markdown link must resolve.
"$BUILD_DIR"/tools/adore_report --regen-experiments --check
scripts/check_md_links.sh

# Figure-catalogue smoke: the console renderers outside the generated
# blocks have no other CI coverage.  The two time-series figures are
# the cheapest entries (two runs each) and exercise the bespoke-job
# path of the catalogue.
"$BUILD_DIR"/tools/adore_report --figure fig08 >/dev/null
"$BUILD_DIR"/tools/adore_report --figure fig09 >/dev/null

if [[ "${ADORE_CI_SKIP_SANITIZERS:-0}" != "1" ]]; then
    SAN_DIR="${BUILD_DIR}-asan"
    SAN_FLAGS="-O1 -g -fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
    cmake -B "$SAN_DIR" -S . "${GEN[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
    cmake --build "$SAN_DIR" -j "$(nproc)" --target adore_tests
    ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
        ctest --test-dir "$SAN_DIR" --output-on-failure

    # Tier-pinned ASan pass over the region-keyed invalidation and
    # chain unlink paths: the chain graph holds raw Superblock
    # pointers, so a missed unlink is a use-after-free that only this
    # instrumentation can prove absent (the bit-identity suite would
    # happily read the stale memory).
    ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
        "$SAN_DIR"/tests/adore_tests \
            --gtest_filter='ExecTier.*:*TierToggle*'

    # Hardware-prefetcher shard under ASan: the zoo's tables (RPT, DHB,
    # hashed DPTs) and the candidate ring are all raw-index structures
    # on the demand-miss path, exactly the shape the instrumentation
    # exists to check.
    ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
        "$SAN_DIR"/tests/adore_tests --gtest_filter='Hwpf*'

    # Generator/shrinker shard under ASan+UBSan: the generator walks
    # index vectors it also rewrites (dropUnreachable's remaps) and the
    # shrinker erases from containers mid-iteration candidates are
    # built from — off-by-one index math here is exactly what the
    # sanitizers exist to prove absent.
    ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
        "$SAN_DIR"/tests/adore_tests --gtest_filter='Generator*:Fuzz*'

    # Serving shard under ASan+UBSan (DESIGN.md §15): the JSON parser
    # walks raw byte offsets through untrusted input, the result cache
    # splices list nodes held by raw iterators, and the daemon hands
    # payload buffers across worker threads — all classic
    # heap-overflow / use-after-free shapes.  The deliberate
    # corruption-injection tests run here too, so the checksum path is
    # proven memory-safe even while being fed mutated payloads.
    ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
        "$SAN_DIR"/tests/adore_tests \
            --gtest_filter='Json*:ResultCache*:ServiceFault*:Prom*:Serve*'

    TSAN_DIR="${BUILD_DIR}-tsan"
    TSAN_FLAGS="-O1 -g -fsanitize=thread -fno-omit-frame-pointer"
    cmake -B "$TSAN_DIR" -S . "${GEN[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
    cmake --build "$TSAN_DIR" -j "$(nproc)" \
        --target adore_tests adore_chaos adored
    TSAN_OPTIONS=halt_on_error=1 \
        ctest --test-dir "$TSAN_DIR" --output-on-failure \
            -R 'AsyncToggle|OptimizerService|SpscQueue'
    TSAN_OPTIONS=halt_on_error=1 \
        "$TSAN_DIR"/tools/adore_chaos --threads --exec-tier direct \
            --workloads mcf,art,equake --seeds 3 --max-cycles 8000000

    # Daemon shard under TSan (DESIGN.md §15): the drain-vs-submit race
    # (DrainRacingSubmitNeverLosesAdmittedTask), the monitor thread
    # raising cancel flags the workers read mid-simulation, and the
    # shared result cache hit from every worker are the serving layer's
    # real concurrency surface — only the race detector can prove the
    # handoffs are properly ordered.
    TSAN_OPTIONS=halt_on_error=1 \
        "$TSAN_DIR"/tests/adore_tests \
            --gtest_filter='ThreadPool*:Serve*'
    # Short adored soak under TSan: real worker/monitor/cache traffic
    # with the service fault channels armed, not just unit shapes.
    TSAN_OPTIONS=halt_on_error=1 \
        "$TSAN_DIR"/tools/adored --selftest-soak 60 --service-faults \
            --seed 7
fi

echo "ci.sh: all checks passed"
