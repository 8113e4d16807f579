#!/usr/bin/env python3
"""Energy vs. performance: the helper-node trade (paper Sect. 5.2).

Runs the same physiological rebalance twice — plain, and with helper
nodes providing log shipping and rDMA buffer space — and prints the
trade: better response times during migration, at the cost of watts and
joules per query.

Run:  python examples/energy_tradeoff.py   (takes a minute or two)
"""

from repro.experiments.fig6_schemes import quick_fig6_config
from repro.experiments.fig8_helper import run_fig8


def main():
    config = quick_fig6_config()
    result = run_fig8(config)
    print(result.to_table())
    print()

    plain, helped = result.counters["plain"], result.counters["helped"]
    if None not in (plain["resp_ms"], helped["resp_ms"],
                    plain["J/query"], helped["J/query"]):
        print(f"helpers changed mean response time by "
              f"{(helped['resp_ms'] / plain['resp_ms'] - 1):+.0%} and "
              f"energy/query by "
              f"{(helped['J/query'] / plain['J/query'] - 1):+.0%} during the "
              "rebalance —")
        print("trading energy efficiency for performance, as Sect. 5.2 "
              "concludes.")


if __name__ == "__main__":
    main()
