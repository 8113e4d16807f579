"""The perf ledger: four workloads, two clocks, every layer.

A benchmark of the ``repro`` stack that measures it from outside: it
wraps public constructors to keep the live objects, reads public
counters after the run, and starts its own profiler.  ``run.py`` is the
one entry point; ``README.md`` has the glossary.
"""
