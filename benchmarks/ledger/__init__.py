"""The commit ledger: the repository's benchmark.

One seeded instrument that reports wall-clock and simulated cost per
committed transaction, end to end and by layer, over four workloads.
It measures every layer from outside (public counters, wall timing
around public calls, a profiler pass and the existing span forest) and
claims no gain: it is what later claims are measured with.  See
``README.md`` in this directory.
"""
