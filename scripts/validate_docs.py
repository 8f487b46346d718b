#!/usr/bin/env python3
"""Doc-drift validator: keeps README and docs/ in sync with the code.

Three checks, all derived from the repository itself so they cannot rot:
  * README.md's flag table and the flags bench/bench_util.h (the shared
    bench CLI) parses agree both ways: every parsed flag has a row, and
    every flag a row names is still parsed,
  * every docs/*.md file has a row in README.md's documentation index,
  * every intra-repository markdown link in README.md, docs/*.md and the
    top-level *.md files resolves to an existing file (anchors and
    external URLs are ignored).

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


def parsed_bench_flags(root: str) -> set:
    """Flags the shared bench CLI actually parses (arg == "--..." tests)."""
    path = os.path.join(root, "bench", "bench_util.h")
    with open(path, encoding="utf-8") as f:
        src = f.read()
    return set(re.findall(r'arg == "(--[a-z-]+)"', src))


def documented_flags(readme: str) -> set:
    """Flags named in the rows of README's flag table (| flag | meaning |).

    A row may document several flags at once (`--deadline-ms N` /
    `--mem-limit-mb N`), so collect every --flag token inside the row's
    code spans. Other tables (the documentation index) mention flags of
    other binaries and are not the shared CLI's contract.
    """
    flags = set()
    in_table = False
    for line in readme.splitlines():
        if re.fullmatch(r"\|\s*flag\s*\|\s*meaning\s*\|\s*", line):
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


def main() -> None:
    root = sys.argv[1] if len(sys.argv) > 1 else \
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    readme_path = os.path.join(root, "README.md")
    try:
        with open(readme_path, encoding="utf-8") as f:
            readme = f.read()
        flags = parsed_bench_flags(root)
    except OSError as e:
        print(f"validate_docs: cannot read inputs: {e}", file=sys.stderr)
        sys.exit(2)

    ok = True

    documented = documented_flags(readme)
    undocumented = sorted(flags - documented)
    if undocumented:
        fail_list("bench CLI flags missing from README's flag table",
                  undocumented)
        ok = False
    stale = sorted(documented - flags)
    if stale:
        fail_list("README flag-table flags the bench CLI no longer parses",
                  stale)
        ok = False

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

    if not ok:
        sys.exit(1)
    print(f"validate_docs: OK: {len(flags)} CLI flags documented, "
          f"{len(missing_index) + len(indexed)} docs indexed, "
          f"no dead links in {len(markdown_files(root))} markdown files")


if __name__ == "__main__":
    main()
