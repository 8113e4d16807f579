#!/usr/bin/env python3
"""Duplicate census: how many lines under ``src/`` sit in a repeated
6-line window.

Lines are normalised first (stripped, whitespace collapsed; blanks,
comments, docstring delimiters, bare brackets and ``else:``/``try:``/
``return``/``continue``/``pass`` dropped) so that only windows of real
statements can match.  Prints the line count, its share, and the file
pairs sharing the most windows; ``--max N`` exits 1 above N lines.
"""

import argparse
import collections
import itertools
import pathlib
import re
import sys

WINDOW = 6
NOISE = re.compile(r'^(#.*|"""|[\[\](){},]+|else:|try:|return|continue|pass)?$')


def normalised(path):
    """``[(line_number, text)]`` of the lines that count."""
    lines = enumerate(path.read_text().splitlines(), 1)
    pairs = ((n, " ".join(text.split())) for n, text in lines)
    return [(n, text) for n, text in pairs if not NOISE.match(text)]


def census(root):
    total = 0
    seen = collections.defaultdict(list)     # window -> [(path, its line nos)]
    for path in sorted(pathlib.Path(root).rglob("*.py")):
        lines = normalised(path)
        total += len(lines)
        for i in range(len(lines) - WINDOW + 1):
            chunk = lines[i:i + WINDOW]
            seen[tuple(text for _n, text in chunk)].append(
                (path, [n for n, _text in chunk]))
    repeated = set()
    pairs = collections.Counter()
    for hits in seen.values():
        if len(hits) > 1:
            repeated.update((path, n) for path, nos in hits for n in nos)
            files = sorted({str(path) for path, _nos in hits})
            pairs.update(itertools.combinations(files, 2) if len(files) > 1
                         else [(files[0], files[0])])
    return len(repeated), total, pairs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default="src")
    parser.add_argument("--max", type=int, metavar="N",
                        help="exit 1 when more than N lines are repeated")
    args = parser.parse_args()
    repeated, total, pairs = census(args.root)
    print(f"{repeated} of {total} normalised lines "
          f"({100 * repeated / max(total, 1):.1f} %) lie in a repeated "
          f"{WINDOW}-line window")
    for (a, b), windows in pairs.most_common(8):
        print(f"  {windows:3d} windows  {a} <-> {b}")
    return 1 if args.max is not None and repeated > args.max else 0


if __name__ == "__main__":
    sys.exit(main())
