"""Capture every determinism golden.

Run from the repository root::

    PYTHONPATH=src python -m tests.determinism.capture_golden

Rewrites ``golden/<name>.json`` for every entry of ``harness.GOLDENS``
from the current tree and prints, per golden, which top-level keys
differ from the committed file (``unchanged``, or e.g. ``clocks,
table``); two runs produce identical files.  A PR that moves simulated
behaviour on purpose commits the re-captured goldens and explains the
diff — never re-capture to paper over a mismatch nobody understands.
"""

from tests.determinism.harness import (
    GOLDEN_DIR,
    GOLDENS,
    load_golden,
    save_golden,
)


def changed_keys(old: dict, new: dict) -> list[str]:
    """Top-level keys whose value differs (or exists on one side only)."""
    return sorted(key for key in old.keys() | new.keys()
                  if old.get(key) != new.get(key))


def main() -> None:
    for name, fingerprint in GOLDENS.items():
        committed = (GOLDEN_DIR / f"{name}.json").exists()
        old = load_golden(name) if committed else {}
        new = fingerprint()
        save_golden(name, new)
        print(f"{name}: {', '.join(changed_keys(old, new)) or 'unchanged'}")


if __name__ == "__main__":
    main()
