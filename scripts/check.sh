#!/usr/bin/env bash
# Full pre-merge check: ASan+UBSan build of the whole tree, the complete
# ctest suite under the sanitizers, and one oracle-gated mini benchmark
# (the full-matrix driver on a filtered workload) so the parallel runner,
# the memoization layer and the differential oracle are exercised
# end-to-end with sanitizers watching.
#
#   $ scripts/check.sh [--keep]      # --keep: don't delete build-asan
set -euo pipefail
cd "$(dirname "$0")/.."

KEEP=0
[[ "${1:-}" == "--keep" ]] && KEEP=1

BUILD=build-asan
JOBS=$(nproc)

echo "== doc drift (CLI table, doc index, markdown links) =="
python3 scripts/validate_docs.py

echo "== configure (ASan+UBSan) =="
cmake --preset asan > /dev/null

echo "== build =="
cmake --build "$BUILD" -j "$JOBS"

echo "== ctest =="
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

echo "== oracle-gated mini bench =="
# One small slice of the full matrix: four modes of RGB-Gray with the
# determinism repeat, equivalence + invariant checks on. Non-zero exit on
# any oracle violation fails the whole check.
"$BUILD"/bench/bench_a3_fig8_perf --filter RGB --jobs "$JOBS" \
    --json "$BUILD"/BENCH_check.json
grep -q '"ok": true' "$BUILD"/BENCH_check.json

echo "== UTF-8 report gate (cell-store path with byte 0xff) =="
# Every string a report carries goes through the one JSON writer
# (src/mem/json.h), which escapes any byte that is not well-formed UTF-8
# as \u00XX. A --cache directory whose name holds byte 0xff must still
# yield a report that validate_bench.py (a strict UTF-8 reader) accepts.
UTF8_CACHE="$BUILD"/utf8_cache_$'\xff'
rm -rf "$UTF8_CACHE"
"$BUILD"/bench/bench_a3_fig8_perf --filter VecAdd --jobs "$JOBS" \
    --cache "$UTF8_CACHE" --json "$BUILD"/BENCH_utf8_check.json
python3 scripts/validate_bench.py "$BUILD"/BENCH_utf8_check.json
rm -rf "$UTF8_CACHE"

echo "== chaos smoke (fault injection + guard recovery) =="
# The chaos driver injects every fault kind into the VecAdd slice and
# exits non-zero unless every injected run recovers bit-identically to
# the fault-free digest (speculation guard rollback + blacklisting),
# with the sanitizers watching the rollback machinery. The validator
# re-checks the dsa-bench-json/6 contract including the faults block.
"$BUILD"/bench/bench_chaos --filter VecAdd --jobs 2 \
    --json "$BUILD"/BENCH_chaos_check.json
python3 scripts/validate_bench.py "$BUILD"/BENCH_chaos_check.json

echo "== chaos smoke under isolation + cell store =="
# The same chaos slice with the resilience layer composed in: every cell
# runs in a forked child (--isolate) and lands in the cell store
# (--cache). Proves the fault-injection path, process isolation and the
# store compose, with the sanitizers watching both sides of the pipe
# protocol. The second run over the same directory restores every cell.
rm -rf "$BUILD"/chaos_cache_check
"$BUILD"/bench/bench_chaos --filter VecAdd --jobs 2 --isolate \
    --cache "$BUILD"/chaos_cache_check \
    --json "$BUILD"/BENCH_chaos_isolate_check.json
python3 scripts/validate_bench.py "$BUILD"/BENCH_chaos_isolate_check.json
grep -q '"run_status": "complete"' "$BUILD"/BENCH_chaos_isolate_check.json
"$BUILD"/bench/bench_chaos --filter VecAdd --jobs 2 --isolate \
    --cache "$BUILD"/chaos_cache_check \
    --json "$BUILD"/BENCH_chaos_restore_check.json
python3 scripts/validate_bench.py "$BUILD"/BENCH_chaos_restore_check.json
grep -q '"restored": true' "$BUILD"/BENCH_chaos_restore_check.json

echo "== generator fuzz smoke under ASan (200 seeds) =="
# 200 generated loop-nest programs (classes round-robin), every one run
# oracle-gated through the fast DSA path AND the --reference twin;
# bench_stream exits non-zero on any fast-vs-reference divergence in
# cycles or output digest. ASan+UBSan watch the generated-program
# interpreter paths. The validator re-checks the stream/gen JSON blocks.
"$BUILD"/bench/bench_stream --gen-seed 11 --gen-count 200 \
    --json "$BUILD"/BENCH_stream_check.json
python3 scripts/validate_bench.py "$BUILD"/BENCH_stream_check.json

echo "== fault suite under ASan =="
# The rollback/blacklist/watchdog tests rewrite CPU state and memory from
# checkpoints; run them once more standalone so a failure localizes.
"$BUILD"/tests/test_fault

echo "== traced mini bench + trace validation =="
# Same driver with event tracing on: the oracle additionally cross-checks
# the trace against the engine counters, and the emitted Chrome JSON is
# validated structurally (B/E balance, stage-count re-derivation).
"$BUILD"/bench/bench_a3_fig8_perf --filter dijkstra --jobs "$JOBS" \
    --trace "$BUILD"/TRACE_check.json
python3 scripts/validate_trace.py "$BUILD"/TRACE_check.json

echo "== soak gate (kill-and-resume + kill-and-chaos) =="
# bench_soak runs two drills over the one cell store. The cli drill
# SIGKILLs a seeded sweep after K cell-store publishes, re-runs it over
# the same store directory and gates on the resumed bench report being
# bit-identical to an uninterrupted run (docs/RESILIENCE.md). The serve
# drill runs chaos rounds against dsa_serve (docs/SERVING.md): each
# installs a seeded io-fault plan, fires a chaos client at the daemon,
# kills it (SIGKILL or --kill-after suicide) and plants one byte of cache
# corruption for the next boot scrub; every served cell must be
# bit-identical to an in-process reference sweep. The validator re-checks
# the final response against the same reference from the outside; its
# health probe follows the final clean sweep, so the job table must be
# built. The directory name holds a ' because the driver hands paths to
# no shell.
SOAK_DIR="$BUILD/soak'check.tmp"
"$BUILD"/bench/bench_soak --steps small --seed 7 --filter BitCount \
    --rounds 2 --dir "$SOAK_DIR" --keep
python3 scripts/validate_serve.py "$SOAK_DIR"/serve/final.json \
    --ref "$SOAK_DIR"/serve/reference.json --min-cached 1
python3 scripts/validate_serve.py "$SOAK_DIR"/serve/health.json \
    --expect-health --expect-table built
rm -rf "$SOAK_DIR"

echo "== runner + resilience suites under TSan =="
# The batch runner's thread pool and the resilience seams (cell-store
# publishes from worker threads, restores outside the runner's lock,
# breaker state, drain flag) are the concurrency-heavy surfaces; run
# their suites under ThreadSanitizer.
cmake --preset tsan > /dev/null
cmake --build build-tsan -j "$JOBS" --target test_runner test_resilience \
    test_serve bench_stream
TSAN_OPTIONS="halt_on_error=1" build-tsan/tests/test_runner
TSAN_OPTIONS="halt_on_error=1" build-tsan/tests/test_resilience
# The serving daemon's pool/dispatcher/cache locking under TSan (the
# fork-isolate e2e case self-skips: multi-threaded fork is unsupported).
TSAN_OPTIONS="halt_on_error=1" build-tsan/tests/test_serve

echo "== generator sweep under TSan (64 seeds, --jobs 4) =="
# The 64-seed differential sweep through the batch runner's thread pool:
# generated programs stream through worker threads while the oracle
# cross-checks fast vs reference results, with TSan watching the memo
# seam. (--jobs clamps to the host's hardware threads.)
TSAN_OPTIONS="halt_on_error=1" build-tsan/bench/bench_stream \
    --gen-seed 11 --gen-count 64 --jobs 4 \
    --json build-tsan/BENCH_stream_tsan.json
python3 scripts/validate_bench.py build-tsan/BENCH_stream_tsan.json
rm -rf build-tsan

echo "== release build + throughput smoke =="
# Optimized build via the release preset (-O3, warnings-as-errors), then
# the host-throughput driver on the VecAdd smoke slice. The driver's exit
# code is gated by the differential oracle; the validator re-checks the
# dsa-bench-json/6 contract and that every job reports MIPS > 0.
cmake --preset release > /dev/null
cmake --build build -j "$JOBS" --target bench_throughput
build/bench/bench_throughput --filter VecAdd --repeats 2 \
    --json build/BENCH_throughput_check.json
grep -q '"ok": true' build/BENCH_throughput_check.json
python3 scripts/validate_bench.py build/BENCH_throughput_check.json

echo "== perf smoke (fast vs reference, interleaved pairs) =="
# The interleaved A/B harness runs fast and --reference back-to-back per
# pair on the dispatch-bound microloop. Pairing buys one thing: both
# sides of a pair see the same load bursts, so a burst cannot pass for
# a speed change of one side. It does not make the ratio independent of
# the host's load, because the two paths do not slow down alike: MM
# 64x64 neon-autovec read a median of 3.39x at about 130 fast MIPS and
# 3.02-3.11x at 180-190. So each floor sits well under the lowest median
# measured. The fast threaded path measures 5.4-7.5x on this workload
# (20 runs on a 4-vCPU host); 3.0x is the conservative floor that
# catches any hot-path regression without being flaky under CI load.
# Digest+cycle equality is enforced on every pair.
build/bench/bench_throughput --filter DispatchMicro \
    --interleave 3 --assert-ratio 3.0
# Fused-nest takeovers — MM's inner/outer-loop coverage — run on the
# threaded covered loop with per-retire glue accounting. Every MM 64x64
# cell must stay at >= 2.6x its reference twin: the DSA cells measure
# 9.7-13.6x, and the floor cell is neon-autovec (2.77-3.58x over 101 runs
# of 5 pairs on a 4-vCPU host, series medians 3.02-3.39x as the host's
# load moved; bound by out-of-line NEON lane ops in both twins). The
# floor sits 14% under the lowest median, so it trips on a fast-path
# slowdown about that large. A faster reference twin lowers every ratio:
# re-derive the floor when Step() gets faster (docs/PERF.md). Five
# pairs, not three: single 3-pair runs read as low as 2.25x under load.
build/bench/bench_throughput --filter "MM 64x64" \
    --interleave 5 --assert-ratio 2.6

echo "== serving daemon smoke (kill -9, restart, cache bit-identity) =="
# The daemon's whole crash-tolerance story, end to end (docs/SERVING.md):
# a dsa_serve with a --kill-after drill SIGKILLs itself mid-sweep, a
# restarted daemon over the same cache serves the completed cells from
# disk and simulates only the rest, and the merged response is gated
# bit-identical (cycles + output digests) against an uninterrupted
# bench_matrix run of the same cells. A third submit must be fully cached.
cmake --build build -j "$JOBS" --target bench_matrix dsa_serve dsa_submit \
    dsa_chaos_client bench_soak
SOCK=build/dsa_serve_check.sock
CACHE=build/serve_cache_check
rm -rf "$CACHE" "$SOCK"
build/bench/bench_matrix --filter BitCount --jobs "$JOBS" --repeats 1 \
    --json build/BENCH_serve_ref.json
grep -q '"ok": true' build/BENCH_serve_ref.json

wait_for_daemon() {
  for _ in $(seq 1 100); do
    if build/bench/dsa_submit --socket "$SOCK" --ping --quiet \
        > /dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "dsa_serve never answered the ping" >&2
  return 1
}

build/bench/dsa_serve --socket "$SOCK" --cache "$CACHE" --kill-after 2 &
SERVE_PID=$!
wait_for_daemon
set +e
build/bench/dsa_submit --socket "$SOCK" --filter BitCount --quiet
RC=$?
wait "$SERVE_PID"
set -e
# The daemon SIGKILLed itself mid-sweep: the client sees a torn
# connection (exit 5), never a fabricated result.
[[ "$RC" -eq 5 ]]

build/bench/dsa_serve --socket "$SOCK" --cache "$CACHE" &
SERVE_PID=$!
wait_for_daemon
build/bench/dsa_submit --socket "$SOCK" --filter BitCount \
    --json build/SERVE_check.json --quiet
python3 scripts/validate_serve.py build/SERVE_check.json \
    --ref build/BENCH_serve_ref.json --min-cached 2
build/bench/dsa_submit --socket "$SOCK" --filter BitCount \
    --json build/SERVE_check2.json --quiet
python3 scripts/validate_serve.py build/SERVE_check2.json \
    --ref build/BENCH_serve_ref.json --all-cached
# Graceful drain: SIGTERM finishes in-flight work and exits 3.
set +e
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
RC=$?
set -e
[[ "$RC" -eq 3 ]]

echo "== serving daemon crash drill (isolated cell, typed 'crashed') =="
# One cell aborts inside its fork isolate; the daemon classifies it as
# "crashed" while every sibling completes — failure poisons one cell,
# never the sweep.
build/bench/dsa_serve --socket "$SOCK" --isolate \
    --crash-cell "BitCount@neon-dsa/orig" &
SERVE_PID=$!
wait_for_daemon
set +e
build/bench/dsa_submit --socket "$SOCK" --filter BitCount \
    --json build/SERVE_crash_check.json --quiet
RC=$?
set -e
[[ "$RC" -eq 1 ]]  # cells failed, sweep completed
python3 scripts/validate_serve.py build/SERVE_crash_check.json \
    --expect-crashed "BitCount@neon-dsa/orig"
set +e
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
RC=$?
set -e
[[ "$RC" -eq 3 ]]
rm -rf "$CACHE" "$SOCK"

echo "== serve protocol fuzz smoke (seeded hostile clients) =="
# dsa_chaos_client replays a seeded stream of hostile connections —
# garbage bytes, torn frames, oversize headers, slow-loris drips,
# requests nested past the JSON parser's depth bound — and proves the
# daemon answers a well-behaved ping after every attack. The
# short read deadline makes the reader reap held connections inside the
# smoke's budget; the health probe then validates the hostile-traffic
# census and a clean SIGTERM drain must still exit 3. The chaos client
# sends only hostile frames and pings, so the job table must still be
# unbuilt: pings never build it (docs/SERVING.md).
rm -rf "$CACHE" "$SOCK"
build/bench/dsa_serve --socket "$SOCK" --cache "$CACHE" \
    --read-deadline-ms 500 &
SERVE_PID=$!
wait_for_daemon
build/bench/dsa_chaos_client --socket "$SOCK" --seed 11 --rounds 24 \
    --slow-ms 20
build/bench/dsa_submit --socket "$SOCK" --health \
    --json build/SERVE_health_check.json --quiet
python3 scripts/validate_serve.py build/SERVE_health_check.json \
    --expect-health --expect-table unbuilt
set +e
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
RC=$?
set -e
[[ "$RC" -eq 3 ]]
rm -rf "$CACHE" "$SOCK"

echo "== io-fault + serve suites under standalone UBSan =="
# The injector's bit-twiddling (splitmix64, CRC frames, census arrays)
# and the daemon's reader/dispatcher teardown run once more under
# undefined-behaviour sanitizing without ASan interceptors — the
# configuration closest to the release build.
cmake --preset ubsan > /dev/null
cmake --build build-ubsan -j "$JOBS" --target test_serve test_resilience
UBSAN_OPTIONS="halt_on_error=1" build-ubsan/tests/test_resilience
UBSAN_OPTIONS="halt_on_error=1" build-ubsan/tests/test_serve
rm -rf build-ubsan

if [[ "$KEEP" -eq 0 ]]; then
  rm -rf "$BUILD"
fi
echo "== all checks passed =="
