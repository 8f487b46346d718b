#!/usr/bin/env python3
"""Structural validator for dsa-bench-json/6 batch reports.

Checks that a file produced by `--json PATH` (sim::WriteBenchJson,
src/sim/runner.cc) honours the contract in docs/BENCH_SCHEMA.md:
  * is well-formed JSON carrying the "dsa-bench-json/6" schema marker,
  * has every required top-level field with a sane value,
  * reconciles the run census: sum of per-result `runs` == executed_runs,
    every "ok" cell ran exactly `repeats` times, `faulted_cells` matches
    the number of results whose cell_status != "ok", `cancelled_cells`
    matches the "cancelled" results and `restored_cells` matches the
    results flagged `"restored": true`,
  * checks run_status/cell_status consistency: run_status is "complete"
    or "interrupted", and a "complete" run has no cancelled cells,
  * validates the optional resilience blocks -- the cell-store `cache`
    census (restored agreeing with restored_cells, non-negative store
    counters, an [io-fault] warning exactly when a failure count is
    above zero) and the `breaker` census (per-workload state in
    closed/open/half-open with non-negative counters),
  * carries an oracle verdict (and, by default, a passing one),
  * has one result object per distinct job with the required fields --
    faulted cells appear with a minimal payload (status, attempts, error)
    instead of being silently dropped,
  * has a host throughput block per completed result with mips > 0
    whenever the run executed at least one interpreter step, plus a
    host.phases block (new in /6) whose non-negative
    dispatch/observe/mem/neon millisecond buckets sum to at most
    host.wall_ms,
  * cross-checks the `faults` block (fault-injected runs only): the
    per-kind fired counters must sum to total_fired,
  * validates the optional `stream` block (bytes > 0; gbps must be
    bytes/cycles at the modeled 1 GHz, cross-checked against `cycles`)
    and the optional `gen` block (seed/class/count with a known
    generator class, consistent across every result of one workload), and
  * uses "0x..." hex form for output digests.

Exit code 0 = valid, 1 = validation failure, 2 = usage/IO error.

  $ python3 scripts/validate_bench.py out.json [--allow-oracle-failure]
"""
import json
import sys

REQUIRED_TOP = [
    "schema", "bench", "jobs", "repeats", "wall_ms", "distinct_jobs",
    "executed_runs", "faulted_cells", "memo_hits", "restored_cells",
    "cancelled_cells", "run_status", "oracle", "results",
]
# Every result carries its cell status; completed cells carry the stats.
REQUIRED_RESULT_ANY = ["job", "workload", "mode", "config", "cell_status",
                       "attempts", "runs"]
REQUIRED_RESULT_OK = [
    "cycles", "output_ok", "output_digest", "wall_ms", "host", "cpu",
    "l1", "l2", "dram_accesses", "energy",
]
REQUIRED_HOST = ["mips", "wall_ms", "steps"]
# host.phases (new in /6): disjoint host-time buckets attributing the wall
# time of the run loop -- each non-negative, summing to at most wall_ms.
REQUIRED_PHASES = ["dispatch_ms", "observe_ms", "mem_ms", "neon_ms"]
REQUIRED_STREAM = ["bytes", "gbps"]
REQUIRED_GEN = ["seed", "class", "count"]
GEN_CLASSES = {"counted", "sentinel", "conditional", "nested",
               "stride-variant", "early-exit"}
REQUIRED_FAULTS = ["plan", "seed", "total_fired", "opportunities", "fired"]
REQUIRED_CACHE = ["dir", "restored", "stores", "store_failures",
                  "fsync_failures"]
REQUIRED_BREAKER_ENTRY = ["workload", "state", "failures", "trips", "skipped"]
MODES = {"arm-original", "neon-autovec", "neon-handvec", "neon-dsa"}
CELL_STATUSES = {"ok", "faulted", "crashed", "timeout", "oom", "skipped",
                 "cancelled"}
RUN_STATUSES = {"complete", "interrupted"}
BREAKER_STATES = {"closed", "open", "half-open"}


def fail(msg: str) -> None:
    print(f"validate_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    allow_oracle_failure = "--allow-oracle-failure" in sys.argv[1:]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    path = args[0]
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"validate_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)

    for k in REQUIRED_TOP:
        if k not in doc:
            fail(f"missing top-level field '{k}'")
    if doc["schema"] != "dsa-bench-json/6":
        fail(f"schema is {doc['schema']!r}, expected 'dsa-bench-json/6'")
    if len(doc["results"]) != doc["distinct_jobs"]:
        fail(f"{len(doc['results'])} results for "
             f"{doc['distinct_jobs']} distinct jobs")
    if doc["wall_ms"] < 0:
        fail("negative batch wall_ms")
    if doc["run_status"] not in RUN_STATUSES:
        fail(f"run_status {doc['run_status']!r} not in {sorted(RUN_STATUSES)}")
    if doc["run_status"] == "complete" and doc["cancelled_cells"] != 0:
        fail(f"run_status 'complete' but cancelled_cells="
             f"{doc['cancelled_cells']}")

    if "cache" in doc:
        cb = doc["cache"]
        for k in REQUIRED_CACHE:
            if k not in cb:
                fail(f"cache block missing '{k}'")
        if not cb["dir"]:
            fail("cache block with an empty dir")
        if cb["restored"] != doc["restored_cells"]:
            fail(f"cache.restored={cb['restored']} disagrees with "
                 f"restored_cells={doc['restored_cells']}")
        for k in ("stores", "store_failures", "fsync_failures"):
            if not isinstance(cb[k], int) or cb[k] < 0:
                fail(f"cache.{k}={cb[k]!r} is not a non-negative integer")
        # Host-I/O degradation is typed, never silent: non-zero failure
        # counters must carry the [io-fault] warning string, and a clean
        # store must not cry wolf.
        failures = cb["store_failures"] + cb["fsync_failures"]
        if failures > 0 and "[io-fault]" not in cb.get("warning", ""):
            fail(f"cache reports {failures} host-I/O failure(s) without "
                 f"an [io-fault] warning")
        if failures == 0 and "warning" in cb:
            fail(f"cache.warning present with zero failures: "
                 f"{cb['warning']!r}")
    elif doc["restored_cells"] != 0:
        fail(f"restored_cells={doc['restored_cells']} without a cache "
             f"block")

    if "breaker" in doc:
        br = doc["breaker"]
        if br.get("enabled") is not True:
            fail("breaker block present but not enabled")
        if "workloads" not in br:
            fail("breaker block missing 'workloads'")
        for b in br["workloads"]:
            wl = b.get("workload", "<unnamed>")
            for k in REQUIRED_BREAKER_ENTRY:
                if k not in b:
                    fail(f"breaker entry {wl}: missing '{k}'")
            if b["state"] not in BREAKER_STATES:
                fail(f"breaker entry {wl}: state {b['state']!r} not in "
                     f"{sorted(BREAKER_STATES)}")
            for k in ("failures", "trips", "skipped"):
                if not isinstance(b[k], int) or b[k] < 0:
                    fail(f"breaker entry {wl}: {k}={b[k]!r} not a "
                         f"non-negative integer")

    oracle = doc["oracle"]
    for k in ("enabled", "ok", "violations"):
        if k not in oracle:
            fail(f"oracle missing '{k}'")
    if oracle["enabled"] and not oracle["ok"] and not allow_oracle_failure:
        fail(f"oracle reports {len(oracle['violations'])} violation(s)")

    runs_sum = 0
    faulted = 0
    cancelled = 0
    restored = 0
    gen_by_workload = {}
    for r in doc["results"]:
        job = r.get("job", "<unnamed>")
        for k in REQUIRED_RESULT_ANY:
            if k not in r:
                fail(f"result {job}: missing '{k}'")
        if r["mode"] not in MODES:
            fail(f"result {job}: unknown mode {r['mode']!r}")
        if r["cell_status"] not in CELL_STATUSES:
            fail(f"result {job}: unknown cell_status {r['cell_status']!r}")
        runs_sum += r["runs"]
        if r["attempts"] < r["runs"]:
            fail(f"result {job}: attempts={r['attempts']} < runs={r['runs']}")
        if r.get("restored"):
            restored += 1
            if r["cell_status"] != "ok":
                fail(f"result {job}: restored cell with cell_status "
                     f"{r['cell_status']!r}")
        if r["cell_status"] != "ok":
            faulted += 1
            cancelled += r["cell_status"] == "cancelled"
            if not r.get("error"):
                fail(f"result {job}: faulted cell without an 'error'")
            continue  # faulted cells carry a minimal payload only
        for k in REQUIRED_RESULT_OK:
            if k not in r:
                fail(f"result {job}: missing '{k}'")
        digest = r["output_digest"]
        if not (isinstance(digest, str) and digest.startswith("0x")):
            fail(f"result {job}: output_digest {digest!r} not '0x...' hex")
        host = r["host"]
        for k in REQUIRED_HOST:
            if k not in host:
                fail(f"result {job}: host block missing '{k}'")
        if host["steps"] > 0 and not host["mips"] > 0:
            fail(f"result {job}: {host['steps']} steps but "
                 f"mips={host['mips']}")
        if "phases" not in host:
            fail(f"result {job}: host block missing 'phases' (new in /6)")
        phases = host["phases"]
        for k in REQUIRED_PHASES:
            if k not in phases:
                fail(f"result {job}: host.phases missing '{k}'")
            if not isinstance(phases[k], (int, float)) or phases[k] < 0:
                fail(f"result {job}: host.phases.{k}={phases[k]!r} not a "
                     f"non-negative number")
        phase_sum = sum(phases[k] for k in REQUIRED_PHASES)
        if phase_sum > host["wall_ms"] * 1.0001 + 1e-9:
            fail(f"result {job}: host.phases sum to {phase_sum} ms, more "
                 f"than host.wall_ms={host['wall_ms']}")
        if host["wall_ms"] < 0 or r["wall_ms"] < 0:
            fail(f"result {job}: negative wall time")
        if r["runs"] != doc["repeats"]:
            fail(f"result {job}: runs={r['runs']} != repeats")
        if "stream" in r:
            st = r["stream"]
            for k in REQUIRED_STREAM:
                if k not in st:
                    fail(f"result {job}: stream block missing '{k}'")
            if not isinstance(st["bytes"], int) or st["bytes"] <= 0:
                fail(f"result {job}: stream.bytes={st['bytes']!r} not a "
                     f"positive integer")
            if r["cycles"] > 0:
                expect = st["bytes"] / r["cycles"]
                if abs(st["gbps"] - expect) > max(1e-9, expect * 1e-4):
                    fail(f"result {job}: stream.gbps={st['gbps']} but "
                         f"bytes/cycles={expect}")
        if "gen" in r:
            gb = r["gen"]
            for k in REQUIRED_GEN:
                if k not in gb:
                    fail(f"result {job}: gen block missing '{k}'")
            if gb["class"] not in GEN_CLASSES:
                fail(f"result {job}: gen.class {gb['class']!r} not in "
                     f"{sorted(GEN_CLASSES)}")
            if not isinstance(gb["seed"], int) or gb["seed"] < 0:
                fail(f"result {job}: gen.seed={gb['seed']!r} not a "
                     f"non-negative integer")
            if not isinstance(gb["count"], int) or gb["count"] < 0:
                fail(f"result {job}: gen.count={gb['count']!r} not a "
                     f"non-negative integer")
            prev = gen_by_workload.setdefault(r["workload"], gb)
            if prev != gb:
                fail(f"result {job}: gen block {gb} disagrees with another "
                     f"result of the same workload: {prev}")
        if "faults" in r:
            fb = r["faults"]
            for k in REQUIRED_FAULTS:
                if k not in fb:
                    fail(f"result {job}: faults block missing '{k}'")
            if sum(fb["fired"].values()) != fb["total_fired"]:
                fail(f"result {job}: fired counters sum to "
                     f"{sum(fb['fired'].values())}, total_fired says "
                     f"{fb['total_fired']}")

    if runs_sum != doc["executed_runs"]:
        fail(f"per-result runs sum to {runs_sum}, executed_runs says "
             f"{doc['executed_runs']}")
    if faulted != doc["faulted_cells"]:
        fail(f"{faulted} results are faulted, faulted_cells says "
             f"{doc['faulted_cells']}")
    if cancelled != doc["cancelled_cells"]:
        fail(f"{cancelled} results are cancelled, cancelled_cells says "
             f"{doc['cancelled_cells']}")
    if restored != doc["restored_cells"]:
        fail(f"{restored} results are flagged restored, restored_cells "
             f"says {doc['restored_cells']}")
    if cancelled > 0 and doc["run_status"] != "interrupted":
        fail(f"{cancelled} cancelled cells in a "
             f"{doc['run_status']!r} run")

    n = len(doc["results"])
    print(f"validate_bench: OK: {path}: {n} results "
          f"({doc['faulted_cells']} faulted, {doc['cancelled_cells']} "
          f"cancelled, {doc['restored_cells']} restored), "
          f"run_status={doc['run_status']}, oracle ok={oracle['ok']}")


if __name__ == "__main__":
    main()
