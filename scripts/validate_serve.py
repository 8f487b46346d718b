#!/usr/bin/env python3
"""Structural validator for dsa-serve/1 daemon responses.

Checks that a response dumped by `dsa_submit --json PATH` honours the
contract in docs/SERVING.md:
  * is well-formed JSON carrying the "dsa-serve/1" schema marker with a
    known status ("ok", "interrupted", "deadline", "overload",
    "bad-request"),
  * every cell carries job/workload/mode/cell_status/cached/attempts, a
    known cell_status, and — for "ok" cells — cycles plus a "0x..." hex
    output digest,
  * the cells_ok / cells_failed / cells_cached tallies reconcile with
    the cells array,
  * the cache and breaker telemetry blocks are present with sane
    values (breaker states in closed/open/half-open), including the
    cache store_failures / fsync_failures degradation counters,
  * when a "health" block is present (a `dsa_submit --health` probe) it
    carries the hostile-traffic counters, the boot-scrub census, a
    per-kind io-fault census whose fired tallies never exceed their
    opportunities, the job table (cells and build_ms both 0 before the
    first sweep, both above 0 after it) and the queue/cells/respond
    sweep stages with p50_us <= p99_us (--expect-health makes the block
    mandatory; --expect-table built|unbuilt pins the table's state),
and optionally cross-checks the serving path against the CLI path:
  * --ref BENCH.json: every "ok" cell must appear in the bench_matrix
    report (matched by job key) with bit-identical cycles and output
    digest — the cache/restart promise, gated end to end,
  * --min-cached N: at least N cells served from the persistent cache,
  * --all-cached: every cell served from the cache,
  * --expect-crashed KEY: the cell KEY reports cell_status "crashed"
    while every other cell is "ok" (the crash-drill assertion).

Exit code 0 = valid, 1 = validation failure, 2 = usage/IO error.

  $ python3 scripts/validate_serve.py response.json [--ref bench.json]
        [--min-cached N] [--all-cached] [--expect-crashed JOBKEY]
        [--expect-health] [--expect-table built|unbuilt]
"""
import json
import sys

KNOWN_STATUS = {"ok", "interrupted", "deadline", "overload", "bad-request"}
KNOWN_CELL_STATUS = {"ok", "faulted", "crashed", "timeout", "oom",
                     "skipped", "cancelled"}
REQUIRED_CELL = ["job", "workload", "mode", "cell_status", "cached",
                 "attempts"]
BREAKER_STATES = {"closed", "open", "half-open"}

_errors = []


def err(msg: str) -> None:
    _errors.append(msg)


def load(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"validate_serve: cannot load {path}: {e}", file=sys.stderr)
        sys.exit(2)


def counters(block, where: str, fields) -> dict:
    """Checks that `block` is an object whose `fields` are non-negative
    integers; returns the fields that are."""
    if not isinstance(block, dict):
        err(f"{where}: missing")
        return {}
    good = {}
    for field in fields:
        v = block.get(field)
        if isinstance(v, int) and v >= 0:
            good[field] = v
        else:
            err(f"{where}.{field}: {v!r} is not a non-negative integer")
    return good


def check_cells(resp: dict) -> list:
    cells = resp.get("cells")
    if not isinstance(cells, list):
        err("cells: missing or not an array")
        return []
    seen = set()
    for i, cell in enumerate(cells):
        where = f"cells[{i}]"
        if not isinstance(cell, dict):
            err(f"{where}: not an object")
            continue
        for field in REQUIRED_CELL:
            if field not in cell:
                err(f"{where}: missing field {field!r}")
        status = cell.get("cell_status")
        if status not in KNOWN_CELL_STATUS:
            err(f"{where}: unknown cell_status {status!r}")
        job = cell.get("job")
        if job in seen:
            err(f"{where}: duplicate job key {job!r}")
        seen.add(job)
        if not isinstance(cell.get("cached"), bool):
            err(f"{where}: cached is not a boolean")
        if status == "ok":
            if not isinstance(cell.get("cycles"), int) or cell["cycles"] <= 0:
                err(f"{where}: ok cell without positive integer cycles")
            digest = cell.get("output_digest")
            if not (isinstance(digest, str) and digest.startswith("0x")
                    and len(digest) == 18):
                err(f"{where}: output_digest {digest!r} is not 0x + 16 hex")
        elif not cell.get("error"):
            err(f"{where}: failed cell ({status}) without an error string")
    return [c for c in cells if isinstance(c, dict)]


def check_tallies(resp: dict, cells: list) -> None:
    ok = sum(1 for c in cells if c.get("cell_status") == "ok")
    failed = sum(1 for c in cells if c.get("cell_status") != "ok")
    cached = sum(1 for c in cells if c.get("cached") is True)
    for name, want in (("cells_ok", ok), ("cells_failed", failed),
                       ("cells_cached", cached)):
        got = resp.get(name)
        if got != want:
            err(f"{name}: reports {got!r}, cells array has {want}")


def check_telemetry(resp: dict) -> None:
    counters(resp.get("cache"), "cache",
             ("hits", "misses", "stores", "quarantined", "store_failures",
              "fsync_failures"))
    breaker = resp.get("breaker")
    if not isinstance(breaker, list):
        err("breaker: missing census array")
    else:
        for i, entry in enumerate(breaker):
            if entry.get("state") not in BREAKER_STATES:
                err(f"breaker[{i}]: unknown state {entry.get('state')!r}")


IO_FAULT_KINDS = ["enospc", "eio", "short-write", "fsync-fail",
                  "rename-fail", "open-fail"]


def check_table(health: dict, expect: str) -> None:
    table = counters(health.get("table"), "health.table",
                     ("cells", "build_ms"))
    if len(table) == 2:
        built = table["cells"] > 0
        if built != (table["build_ms"] > 0):
            err(f"health.table: cells {table['cells']} and build_ms "
                f"{table['build_ms']} must both be 0 or both above 0")
        elif expect is not None and built != (expect == "built"):
            err(f"--expect-table {expect}: table has {table['cells']} cells")
    stages = health.get("stages")
    for stage in ("queue", "cells", "respond"):
        got = counters(stages.get(stage) if isinstance(stages, dict) else None,
                       f"health.stages.{stage}",
                       ("count", "p50_us", "p99_us"))
        if len(got) == 3 and got["p50_us"] > got["p99_us"]:
            err(f"health.stages.{stage}: p50_us {got['p50_us']} > p99_us "
                f"{got['p99_us']}")


def check_health(resp: dict, required: bool, expect_table: str) -> None:
    health = resp.get("health")
    if health is None:
        if required or expect_table is not None:
            err("health: block missing (--expect-health/--expect-table)")
        return
    if not isinstance(health, dict):
        err("health: not an object")
        return
    check_table(health, expect_table)
    counters(health, "health", ("requests_served", "corrupt_frames",
                                "read_timeouts", "refused_connections"))
    scrub = counters(health.get("scrub"), "health.scrub",
                     ("checked", "ok", "quarantined"))
    if len(scrub) == 3 and scrub["ok"] + scrub["quarantined"] > \
            scrub["checked"]:
        err("health.scrub: ok + quarantined exceeds checked")
    io = health.get("io_faults")
    if not isinstance(io, dict):
        err("health.io_faults: missing census")
        return
    if not isinstance(io.get("active"), bool):
        err("health.io_faults.active: not a boolean")
    if not isinstance(io.get("plan"), str):
        err("health.io_faults.plan: not a string")
    census = io.get("census")
    if not isinstance(census, dict):
        err("health.io_faults.census: missing")
        return
    for kind in IO_FAULT_KINDS:
        entry = census.get(kind)
        if not isinstance(entry, dict):
            err(f"health.io_faults.census.{kind}: missing")
            continue
        opp = entry.get("opportunities")
        fired = entry.get("fired")
        if not isinstance(opp, int) or not isinstance(fired, int):
            err(f"health.io_faults.census.{kind}: non-integer tallies")
        elif fired > opp:
            err(f"health.io_faults.census.{kind}: fired {fired} > "
                f"opportunities {opp}")


def check_ref(cells: list, ref_path: str) -> None:
    ref = load(ref_path)
    by_job = {}
    for result in ref.get("results", []):
        by_job[result.get("job")] = result
    matched = 0
    for cell in cells:
        if cell.get("cell_status") != "ok":
            continue
        job = cell.get("job")
        result = by_job.get(job)
        if result is None:
            err(f"--ref: cell {job!r} has no counterpart in {ref_path}")
            continue
        if cell.get("cycles") != result.get("cycles"):
            err(f"--ref: cell {job!r} cycles {cell.get('cycles')} != "
                f"reference {result.get('cycles')}")
        if cell.get("output_digest") != result.get("output_digest"):
            err(f"--ref: cell {job!r} digest {cell.get('output_digest')} != "
                f"reference {result.get('output_digest')}")
        matched += 1
    if matched == 0:
        err("--ref: no ok cell matched the reference report")


def main() -> None:
    args = sys.argv[1:]
    if not args or args[0].startswith("--"):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    path = args[0]
    ref_path = None
    min_cached = None
    all_cached = False
    expect_crashed = None
    expect_health = False
    expect_table = None
    i = 1
    while i < len(args):
        if args[i] == "--ref" and i + 1 < len(args):
            ref_path = args[i + 1]
            i += 2
        elif args[i] == "--expect-health":
            expect_health = True
            i += 1
        elif args[i] == "--expect-table" and i + 1 < len(args) and \
                args[i + 1] in ("built", "unbuilt"):
            expect_table = args[i + 1]
            i += 2
        elif args[i] == "--min-cached" and i + 1 < len(args):
            min_cached = int(args[i + 1])
            i += 2
        elif args[i] == "--all-cached":
            all_cached = True
            i += 1
        elif args[i] == "--expect-crashed" and i + 1 < len(args):
            expect_crashed = args[i + 1]
            i += 2
        else:
            print(f"validate_serve: unknown argument {args[i]!r}",
                  file=sys.stderr)
            sys.exit(2)

    resp = load(path)
    if resp.get("schema") != "dsa-serve/1":
        err(f"schema: {resp.get('schema')!r} != 'dsa-serve/1'")
    if resp.get("status") not in KNOWN_STATUS:
        err(f"status: unknown {resp.get('status')!r}")

    cells = check_cells(resp)
    check_tallies(resp, cells)
    check_telemetry(resp)
    check_health(resp, expect_health, expect_table)

    if ref_path is not None:
        check_ref(cells, ref_path)
    if min_cached is not None:
        cached = sum(1 for c in cells if c.get("cached") is True)
        if cached < min_cached:
            err(f"--min-cached: {cached} cached cells < required "
                f"{min_cached}")
    if all_cached:
        fresh = [c.get("job") for c in cells if c.get("cached") is not True]
        if fresh:
            err(f"--all-cached: cells simulated fresh: {fresh}")
    if expect_crashed is not None:
        found = False
        for cell in cells:
            if cell.get("job") == expect_crashed:
                found = True
                if cell.get("cell_status") != "crashed":
                    err(f"--expect-crashed: {expect_crashed!r} has status "
                        f"{cell.get('cell_status')!r}, wanted 'crashed'")
            elif cell.get("cell_status") != "ok":
                err(f"--expect-crashed: sibling {cell.get('job')!r} is "
                    f"{cell.get('cell_status')!r}, wanted 'ok'")
        if not found:
            err(f"--expect-crashed: cell {expect_crashed!r} not in response")

    if _errors:
        print(f"validate_serve: FAIL: {path}", file=sys.stderr)
        for e in _errors:
            print(f"  - {e}", file=sys.stderr)
        sys.exit(1)
    cached = sum(1 for c in cells if c.get("cached") is True)
    print(f"validate_serve: OK: {path} status={resp.get('status')} "
          f"cells={len(cells)} cached={cached}")


if __name__ == "__main__":
    main()
