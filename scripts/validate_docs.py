#!/usr/bin/env python3
"""Doc-drift validator: keeps README and docs/ in sync with the code.

Five checks, all derived from the repository itself so they cannot rot:
  * each flag table and the flags its binary parses (`arg == "--..."`
    tests; `--help` exempt) agree both ways: every parsed flag has a
    row, and every flag a row names is still parsed. The tables are
    README.md's (bench/bench_util.h, the shared bench CLI) and
    docs/SERVING.md's `dsa_serve` and `dsa_submit` tables
    (bench/dsa_serve.cc, bench/dsa_submit.cc),
  * every docs/*.md file has a row in README.md's documentation index,
  * every intra-repository markdown link in README.md, docs/*.md and the
    top-level *.md files resolves to an existing file (anchors and
    external URLs are ignored),
  * every binary README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md name
    (a build*/{bench,examples,tests}/NAME path or a backticked test_*
    name) is an executable a CMakeLists.txt under bench/, examples/ or
    tests/ defines,
  * every "N suites" count in README.md equals the number of ctest
    suites tests/CMakeLists.txt registers (add_test calls).

Exit code 0 = in sync, 1 = drift found, 2 = usage/IO error.

  $ python3 scripts/validate_docs.py [repo-root]
"""
import os
import re
import sys


def fail_list(title: str, items: list) -> None:
    print(f"validate_docs: FAIL: {title}", file=sys.stderr)
    for it in items:
        print(f"  - {it}", file=sys.stderr)


# (doc, table header's first cell, source that parses the flags)
FLAG_TABLES = [
    ("README.md", "flag", "bench/bench_util.h"),
    ("docs/SERVING.md", "`dsa_serve` flag", "bench/dsa_serve.cc"),
    ("docs/SERVING.md", "`dsa_submit` flag", "bench/dsa_submit.cc"),
]


def parsed_flags(root: str, source: str) -> set:
    """Flags a source actually parses (arg == "--..." tests), but --help."""
    with open(os.path.join(root, source), encoding="utf-8") as f:
        src = f.read()
    return set(re.findall(r'arg == "(--[a-z-]+)"', src)) - {"--help"}


def documented_flags(text: str, header: str) -> set:
    """Flags named in the rows of the table headed | header | meaning |.

    A row may document several flags at once (`--deadline-ms N` /
    `--mem-limit-mb N`), so collect every --flag token inside the row's
    code spans. Other tables (the documentation index) mention flags of
    other binaries and are not the table's contract.
    """
    flags = set()
    in_table = False
    head = re.compile(r"\|\s*" + re.escape(header) +
                      r"\s*\|\s*meaning\s*\|\s*")
    for line in text.splitlines():
        if head.fullmatch(line):
            in_table = True
            continue
        if not in_table:
            continue
        if not line.startswith("|"):
            break
        for span in re.findall(r"`([^`]*)`", line):
            flags.update(re.findall(r"(--[a-z-]+)", span))
    return flags


def doc_index_entries(readme: str) -> set:
    """Link targets of the README's documentation-index table."""
    targets = set()
    for line in readme.splitlines():
        if not line.startswith("|"):
            continue
        targets.update(re.findall(r"\]\(([^)#]+)\)", line))
    return targets


def markdown_files(root: str) -> list:
    files = [os.path.join(root, f) for f in sorted(os.listdir(root))
             if f.endswith(".md")]
    docs = os.path.join(root, "docs")
    if os.path.isdir(docs):
        files += [os.path.join(docs, f) for f in sorted(os.listdir(docs))
                  if f.endswith(".md")]
    return files


def broken_links(root: str) -> list:
    """Intra-repo markdown links that do not resolve from their file."""
    broken = []
    link_re = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
    for path in markdown_files(root):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        # Links inside fenced code blocks are illustrative, not navigable.
        text = re.sub(r"```.*?```", "", text, flags=re.S)
        base = os.path.dirname(path)
        for target in link_re.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            if not os.path.exists(os.path.join(base, rel)):
                broken.append(f"{os.path.relpath(path, root)} -> {target}")
    return broken


def cmake_names(text: str, command: str) -> list:
    """First arguments of every `command` call in a CMakeLists.txt text.

    Understands the two forms the repo's CMakeLists.txt files use: a
    literal command(NAME ...) and command(${v} ...) inside foreach(v
    ITEMS), where ITEMS may expand a set(VAR ...) list. add_test's NAME
    keyword is skipped.
    """
    text = re.sub(r"#.*", "", text)
    head = command + r"\(\s*(?:NAME\s+)?"
    lists = {m.group(1): m.group(2).split() for m in
             re.finditer(r"set\(\s*(\w+)\s+([^)]*)\)", text)}
    names = []
    for var, items, body in re.findall(
            r"foreach\(\s*(\w+)\s+([^)]*)\)(.*?)endforeach", text, re.S):
        if not re.search(head + r"\$\{" + var + r"\}", body):
            continue
        for item in items.split():
            ref = re.fullmatch(r"\$\{(\w+)\}", item)
            names += lists.get(ref.group(1), []) if ref else [item]
    names += [n for n in re.findall(head + r"([\w${}]+)", text)
              if "$" not in n]
    return names


def cmake_executables(root: str) -> set:
    """Executables defined by bench/, examples/ and tests/ CMakeLists.txt."""
    names = set()
    for sub in ("bench", "examples", "tests"):
        path = os.path.join(root, sub, "CMakeLists.txt")
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as f:
            names.update(cmake_names(f.read(), "add_executable"))
    return names


def suite_count_drift(root: str, readme: str) -> list:
    """README "N suites" counts that differ from tests/ add_test calls."""
    with open(os.path.join(root, "tests", "CMakeLists.txt"),
              encoding="utf-8") as f:
        suites = len(cmake_names(f.read(), "add_test"))
    return [f"README.md says {n} suites; tests/CMakeLists.txt registers "
            f"{suites}" for n in re.findall(r"\b(\d+) suites\b", readme)
            if int(n) != suites]


def unbuilt_binaries(root: str) -> list:
    """Binaries the docs name that no CMake target builds."""
    built = cmake_executables(root)
    docs = [os.path.join(root, f)
            for f in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    docs_dir = os.path.join(root, "docs")
    docs += [os.path.join(docs_dir, f) for f in sorted(os.listdir(docs_dir))
             if f.endswith(".md")]
    missing = []
    for path in docs:
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as f:
            text = f.read()
        named = re.findall(r"build[\w-]*/(?:bench|examples|tests)/"
                           r"([A-Za-z_]\w*)", text)
        named += re.findall(r"`(test_\w+)`", text)
        for name in sorted(set(named) - built):
            missing.append(f"{os.path.relpath(path, root)}: {name}")
    return missing


def main() -> None:
    root = sys.argv[1] if len(sys.argv) > 1 else \
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ok = True
    n_flags = 0
    try:
        with open(os.path.join(root, "README.md"), encoding="utf-8") as f:
            readme = f.read()
        for doc, header, source in FLAG_TABLES:
            with open(os.path.join(root, doc), encoding="utf-8") as f:
                documented = documented_flags(f.read(), header)
            flags = parsed_flags(root, source)
            n_flags += len(flags)
            table = f"{doc}'s {header} table"
            undocumented = sorted(flags - documented)
            if undocumented:
                fail_list(f"{source} flags missing from {table}",
                          undocumented)
                ok = False
            stale = sorted(documented - flags)
            if stale:
                fail_list(f"{table} flags {source} no longer parses", stale)
                ok = False
    except OSError as e:
        print(f"validate_docs: cannot read inputs: {e}", file=sys.stderr)
        sys.exit(2)

    indexed = doc_index_entries(readme)
    docs_dir = os.path.join(root, "docs")
    missing_index = sorted(
        f"docs/{f}" for f in os.listdir(docs_dir) if f.endswith(".md")
        and f"docs/{f}" not in indexed)
    if missing_index:
        fail_list("docs/*.md files missing from README's documentation "
                  "index", missing_index)
        ok = False

    dead = broken_links(root)
    if dead:
        fail_list("markdown links that do not resolve", dead)
        ok = False

    unbuilt = unbuilt_binaries(root)
    if unbuilt:
        fail_list("binaries the docs name that no CMake target builds",
                  unbuilt)
        ok = False

    try:
        drift = suite_count_drift(root, readme)
    except OSError as e:
        print(f"validate_docs: cannot read inputs: {e}", file=sys.stderr)
        sys.exit(2)
    if drift:
        fail_list("README's ctest suite count", drift)
        ok = False

    if not ok:
        sys.exit(1)
    print(f"validate_docs: OK: {n_flags} CLI flags documented in "
          f"{len(FLAG_TABLES)} tables, "
          f"{len(missing_index) + len(indexed)} docs indexed, "
          f"no dead links in {len(markdown_files(root))} markdown files, "
          f"every named binary built, suite count matches")


if __name__ == "__main__":
    main()
