"""Capture every determinism golden.

Run from the repository root::

    PYTHONPATH=src python -m tests.determinism.capture_golden

Rewrites ``golden/<name>.json`` for every entry of ``harness.GOLDENS``
from the current tree; two runs produce identical files.  A PR that
moves simulated behaviour on purpose commits the re-captured goldens
and explains the diff — never re-capture to paper over a mismatch
nobody understands.
"""

from tests.determinism.harness import GOLDENS, save_golden


def main() -> None:
    for name, fingerprint in GOLDENS.items():
        print(f"{name}: {save_golden(name, fingerprint())}")


if __name__ == "__main__":
    main()
