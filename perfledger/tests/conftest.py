"""Self-tests of the perf ledger: ``python -m pytest perfledger/tests -q``
from the repository root (tier-1 collects ``tests/`` only)."""

import perfledger.run  # noqa: F401  (puts src/ on sys.path, as the command does)
