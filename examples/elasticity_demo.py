#!/usr/bin/env python3
"""Elasticity: an open-loop day of traffic, autoscaled vs static.

Three tenant classes share a disk-bound TPC-C cluster: a diurnal
"web" population that also gets hit by a flash crowd at 20% of the
day, a "mobile" population whose daily cycle is phase-shifted, and a
"batch" feed whose rate contract is deliberately below its offered
rate (so the per-tenant token bucket visibly rejects the excess).
Requests arrive on a seeded Poisson schedule whether or not the
cluster keeps up — this is *open-loop* load, so overload shows up as
queueing and shedding instead of silently throttling the clients.

The first act runs the closed-loop autoscaler: a threshold policy,
a Holt load forecast (pre-warmed by a workload hint about the flash
crowd), and queue pressure from the admission controller decide when
to recruit standby nodes through the rebalancer and when to drain and
power them back off.  The second act replays the *same* seeded day
against a statically provisioned cluster.  The closing report shows
per-tenant p50/p99/p999 against SLOs, the scale-out/scale-in
timeline against the traffic peak, and the headline number: joules
per request, and the fraction of energy saved by breathing with the
trace instead of provisioning for the peak.

Run:  python examples/elasticity_demo.py     (about a minute)
"""

import dataclasses

from repro.experiments.elasticity import (
    ElasticityConfig,
    compare,
    run_elasticity,
)

#: A compressed day (8 simulated minutes instead of 40) so the demo
#: finishes quickly; the CLI's ``elasticity`` command runs the larger
#: acceptance day, and ``--full`` a real 86 400 s one.
DEMO = ElasticityConfig(
    day_seconds=480.0,
    min_requests=150_000,
    flash_ramp=25.0, flash_hold=50.0, flash_decay=40.0,
    hint_lead=60.0,
    autoscale_interval=5.0,
    cooldown_intervals=4,
    power_sample_interval=5.0,
    report_buckets=8,
)


def main() -> None:
    results = [
        run_elasticity(dataclasses.replace(DEMO, mode=mode))
        for mode in ("autoscale", "static")
    ]
    results.append(compare(results))
    print("\n\n".join(result.to_table() for result in results))
    if not all(result.ok for result in results):
        raise SystemExit("the day violated its invariants")


if __name__ == "__main__":
    main()
