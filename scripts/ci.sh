#!/usr/bin/env bash
# Tier-1 CI gate: fresh warnings-on -O2 build, full test suite, and an
# ASan+UBSan build of the test suite.  The sanitizer pass exists chiefly
# for the memory-hierarchy fast paths: raw-index access into the SoA tag
# arrays and the Cpu-side line buffers must never read stale or
# out-of-bounds host memory, and the sanitizers catch that class of bug
# where the bit-identity tests cannot (a wild read that happens to
# return the right answer).  Its one full ctest pass also runs every
# other raw-pointer and raw-index shard under the instrumentation: the
# superblock chain graph (a missed unlink is a use-after-free), the
# hw-prefetcher tables, deferred page fills, the generator's and
# shrinker's index remaps, and the JSON parser, result cache and daemon
# buffers fed untrusted or corruption-injected input.
#
# A TSan build then runs the program's real concurrency: the thread
# pool that fans out runs and the adored daemon's workers, monitor and
# shared result cache.  The simulation itself is single-threaded (the
# optimizer runs inside the poll hook, DESIGN.md §11), so that is the
# whole surface where data races can live, and only TSan sees them.
#
# Exec-tier coverage (DESIGN.md §12): the direct-threaded superblock
# tier is the default, so every stage above already exercises it — the
# full ctest sweep, under ASan too, includes the TierToggle/ExecTier
# bit-identity suite, and the chaos smoke runs with the tier on.  The
# tier's performance gate is deterministic and lives in that sweep:
# every TierToggle case bounds its direct-tier run's block builds and
# evictions and requires block dispatches, and the plain Tier variants
# hold dispatches, chains and loop trips to committed per-workload
# bands, so a block cache that thrashes, a lost chain or a tier that
# never forms blocks fails ctest on any host.  No CI step times the
# host.  An interpreter-tier chaos smoke keeps the legacy dispatch path
# from rotting unexercised.
#
# Demand-paged data segment (DESIGN.md §8): seeded arrays and linked
# lists reach memory as deferred per-page fills that hold RNG snapshots
# (and, for a list, a shared successor table) and write raw page bytes
# on a page's first touch, so compile builds no data page; the ctest
# sweep pins their byte identity (DataSegment.*, and
# DataLayout.LazyListMatchesEagerBuild against the eager list writer)
# and how many pages exist (DataMaterialisation).  The layout generator
# jumps past each array and each list's payload draws with
# Rng::discard, a GF(2) polynomial jump; Rng.* checks it against
# stepping.  The full ASan+UBSan ctest runs Rng.*, where a shift by 64
# in the polynomial arithmetic would be caught, and
# DataLayout.ListPagesOutliveTheirLayout, where a fill that kept a
# reference into its destroyed DataLayout would be.
#
# Hardware-prefetcher coverage (DESIGN.md §13): a --hwpf chaos smoke
# soaks the static zoo and guardrailed ADORE on one shared bus under
# the fault schedule, and the --regen-experiments --check gate below
# also covers the generated hwpf_study block.
#
# Serving coverage (DESIGN.md §15): a fixed-seed 500-job adored soak
# with every service fault channel armed plus a mid-soak SIGTERM proves
# zero lost jobs and a clean drain against a one-shot oracle, a stdin
# protocol smoke covers the line-JSON surface, and the TSan pass
# runs the ThreadPool/Serve shard plus a short fault soak so the
# drain-vs-submit and monitor-cancel races stay under the detector; the
# shard's ServeDaemon.RetriedJobKeepsItsProgramUntilDone runs a
# terminal job's release against concurrent status and wait.
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
# static zoo, so the CPI margin checks hw+ADORE against an hw-only
# baseline while guardrailed ADORE shares the bus with the engines
# under the fault schedule (DESIGN.md §13).
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

    TSAN_DIR="${BUILD_DIR}-tsan"
    TSAN_FLAGS="-O1 -g -fsanitize=thread -fno-omit-frame-pointer"
    cmake -B "$TSAN_DIR" -S . "${GEN[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
    cmake --build "$TSAN_DIR" -j "$(nproc)" --target adore_tests adored

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
