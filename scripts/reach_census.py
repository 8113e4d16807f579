#!/usr/bin/env python3
"""Reachability census: which functions under ``src/repro`` does no
experiment or example enter.

Runs every CLI command below and every ``examples/*.py``, each in its
own process under ``cProfile``, unions the entered code objects and
compares them with every ``def`` an AST walk of ``src/repro`` finds.
Prints the unreached functions by file with their line spans and the
total; ``--max N`` exits 1 above N.  About 25 CPU-minutes.
"""

import argparse
import ast
import concurrent.futures
import os
import pathlib
import pstats
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
COMMANDS = [
    "power", "fig1", "fig2", "fig3", "fig6 --audit",
    "fig6 --nodes 20 --partitions 500 --scheme physiological",
    "fig7", "fig8", "fig9 --audit", "scale-in",
    "chaos --seeds 0 1 2 --audit", "chaos --full --audit",
    "endurance --audit --seeds 0 1 2", "elasticity --seeds 0 --audit",
    "read-scaling --seeds 0 1 2 --audit",
    "torture --quick --audit --seeds 0 1 2",
]


def profiled(target, out):
    """Run one command under cProfile; return the ``(file, line)`` of
    every function it entered."""
    done = subprocess.run(
        [sys.executable, "-m", "cProfile", "-o", str(out), *target],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode:
        raise SystemExit(f"{' '.join(target)} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    return {(file, line) for file, line, _name in pstats.Stats(str(out)).stats}


def entered(jobs):
    targets = [["-m", "repro.experiments", *command.split()]
               for command in COMMANDS]
    targets += [[str(path)] for path in sorted(ROOT.glob("examples/*.py"))]
    with tempfile.TemporaryDirectory() as tmp, \
            concurrent.futures.ThreadPoolExecutor(jobs) as pool:
        outs = [pathlib.Path(tmp) / f"{n}.prof" for n in range(len(targets))]
        return set().union(*pool.map(profiled, targets, outs))


def unreached(reached):
    """``{path: [(first_line, last_line, qualified_name)]}`` of the
    functions no run entered.  The profiler reports a decorated function
    at its first decorator, so either line counts."""
    missing = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}{child.name}"
                first = min([child.lineno] +
                            [d.lineno for d in child.decorator_list])
                if not isinstance(child, ast.ClassDef) and not (
                        {(str(path), first), (str(path), child.lineno)}
                        & reached):
                    missing.setdefault(path, []).append(
                        (first, child.end_lineno, name))
                name += "."
            walk(child, path, name)

    for path in sorted(SRC.rglob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return missing


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="commands profiled at a time")
    parser.add_argument("--max", type=int, metavar="N",
                        help="exit 1 when more than N functions are unreached")
    args = parser.parse_args()
    missing = unreached(entered(args.jobs))
    total = lines = 0
    for path, functions in missing.items():
        print(path.relative_to(ROOT))
        for first, last, name in functions:
            print(f"  {first:4d}-{last:<4d} {name}")
        total += len(functions)
        lines += len({n for first, last, _name in functions
                      for n in range(first, last + 1)})
    print(f"{total} functions ({lines} lines) under src/repro are entered "
          f"by no experiment or example")
    return 1 if args.max is not None and total > args.max else 0


if __name__ == "__main__":
    sys.exit(main())
