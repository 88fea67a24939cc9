#!/usr/bin/env python3
"""List the `throw` sites of named source files that no test reached.

    python3 tools/coverage_gaps.py --build-dir BUILD SRC [SRC ...]
    python3 tools/coverage_gaps.py --build-dir BUILD --known FILE --check SRC ...

BUILD is a build tree configured with `--coverage` whose tests have run,
so every object file has its .gcda counts next to it. For each SRC (a path
relative to the repository root, e.g. src/core/format.cpp) the script runs
`gcov --json-format --stdout` on the matching .gcda, sums each line's count
over every function it belongs to (template instantiations report a line
once per instantiation), and prints the `throw` statements whose lines ran
zero times.

A site is named by its file and its statement text (continuation lines
joined, whitespace collapsed), not its line number, so a known-gaps list
survives edits elsewhere in the file. With --check the script exits 1 when
an unreached site is missing from --known, or when a site listed there was
reached (the list may only shrink: delete the line). Standard library only.
"""

import argparse
import json
import os
import re
import subprocess
import sys

THROW = re.compile(r"\bthrow\b")


def strip_comment(line):
    """The line without a trailing // comment (string literals respected)."""
    in_str = False
    i = 0
    while i < len(line):
        c = line[i]
        if c == "\\" and in_str:
            i += 2
            continue
        if c == '"':
            in_str = not in_str
        elif not in_str and line.startswith("//", i):
            return line[:i]
        i += 1
    return line


def code_only(line):
    """The line's code with string literal contents blanked out."""
    return re.sub(r'"(?:\\.|[^"\\])*"', '""', strip_comment(line))


def throw_sites(lines):
    """(line number, statement text) of each `throw` statement."""
    sites = []
    for i, line in enumerate(lines):
        if not THROW.search(code_only(line)):
            continue
        text = strip_comment(line).strip()
        j = i
        while not code_only(text).rstrip().endswith(";") and j + 1 < len(lines):
            j += 1
            text += " " + strip_comment(lines[j]).strip()
        sites.append((i + 1, " ".join(text.split()).replace("( ", "(")))
    return sites


def find_gcda(build_dir, src):
    """The .gcda file of the object compiled from `src`."""
    want = os.path.basename(src) + ".gcda"
    hits = []
    for root, _, files in os.walk(build_dir):
        if want in files:
            hits.append(os.path.join(root, want))
    # Prefer the object under the source's own directory (src/core/...).
    subdir = os.path.dirname(src)
    preferred = [h for h in hits if subdir and f"/{subdir}/" in h]
    return (preferred or hits)[0] if hits else None


def line_counts(gcda, src, root):
    """Execution count per line of `src`, summed over instantiations."""
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", "-o", os.path.dirname(gcda),
         gcda],
        check=True, capture_output=True, text=True, cwd=root).stdout
    counts = {}
    want = os.path.realpath(os.path.join(root, src))
    # gcov prints one JSON document per object; each lists the files whose
    # lines the object executes (the source itself and inlined headers).
    for doc in out.splitlines():
        doc = doc.strip()
        if not doc:
            continue
        parsed = json.loads(doc)
        cwd = parsed.get("current_working_directory", root)
        for f in parsed.get("files", []):
            path = f["file"]
            if not os.path.isabs(path):
                path = os.path.join(cwd, path)
            if os.path.realpath(path) != want:
                continue
            for ln in f.get("lines", []):
                n = ln["line_number"]
                counts[n] = counts.get(n, 0) + ln["count"]
    return counts


def unreached(build_dir, src, root):
    """(line, text) of every throw site of `src` that ran zero times."""
    gcda = find_gcda(build_dir, src)
    if gcda is None:
        raise SystemExit(f"error: no {os.path.basename(src)}.gcda under "
                         f"{build_dir}; configure with --coverage and run "
                         "the tests first")
    counts = line_counts(os.path.abspath(gcda), src, root)
    with open(os.path.join(root, src)) as f:
        lines = f.read().splitlines()
    # A throw line gcov has no record of cannot be shown to run: a gap.
    return [(n, text) for n, text in throw_sites(lines)
            if counts.get(n, 0) == 0]


def read_known(path):
    known = set()
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                src, _, text = line.partition(" | ")
                known.add((src.strip(), " ".join(text.split())))
    return known


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", required=True)
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--known", help="committed list of known gaps")
    ap.add_argument("--check", action="store_true",
                    help="fail on a gap not in --known or a stale entry")
    ap.add_argument("sources", nargs="+")
    args = ap.parse_args()

    gaps = set()
    for src in args.sources:
        for n, text in unreached(args.build_dir, src, args.root):
            print(f"{src}:{n}: {text}")
            gaps.add((src, text))
    print(f"{len(gaps)} unreached throw site(s) in {len(args.sources)} "
          "file(s)")
    if not args.check:
        return 0
    known = read_known(args.known) if args.known else set()
    new = sorted(gaps - known)
    stale = sorted(k for k in known - gaps if k[0] in args.sources)
    for src, text in new:
        print(f"new gap (add a test that reaches it): {src} | {text}")
    for src, text in stale:
        print(f"reached now (delete it from the known list): {src} | {text}")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
