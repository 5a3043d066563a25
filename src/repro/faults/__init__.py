"""Fault injection: the sources of *erroneous* local aborts and crashes."""

from repro.faults.injector import CrashPoint, FaultInjector

_CHAOS = ("CHAOS_PROTOCOLS", "ChaosResult", "ChaosSpec", "run_chaos")


def __getattr__(name: str):
    # The chaos harness runs through the checker's execution step, and
    # the checker imports this package: load the harness on first use.
    if name in _CHAOS:
        from repro.faults import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["CrashPoint", "FaultInjector", *_CHAOS]
