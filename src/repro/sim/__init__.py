"""Discrete-event simulation kernel.

A compact, dependency-free simulation core in the style of SimPy: an
:class:`~repro.sim.engine.Environment` drives an event heap in virtual
time, and *processes* are plain Python generators that ``yield`` events
(timeouts, resource grants, other processes) to suspend until those
events fire.

The kernel exists because the reproduced paper measured a physical
cluster; here, every hardware interaction (CPU service, disk I/O,
network transfer) is a resource request on this kernel, so that query
latencies, utilisation, and ultimately power/energy fall out of the
simulated timeline deterministically.
"""

from repro.sim.engine import DONE, Environment, Process, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.resources import Resource, Store, UtilizationTracker

__all__ = [
    "AllOf",
    "AnyOf",
    "DONE",
    "Environment",
    "Event",
    "Process",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
    "UtilizationTracker",
]
