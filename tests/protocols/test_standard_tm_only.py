"""Every protocol that needs no ready state runs on the standard TM alone.

The paper's protocols (and the baselines that share their premise) are
meant for unchangeable local TMs: begin / operations / commit / abort,
and nothing else (§2).  Here every site a federation builds with the
standard interface gets a strict proxy instead.  The proxy exposes
exactly :class:`~repro.localdb.interface.StandardTMInterface`'s public
names and refuses anything more -- a private attribute, the wrapped
engine, a modified TM's ready-state bookkeeping.  A refusal is a
``BaseException``, so no handler inside the simulation can swallow it
and leave a requester retrying: the run ends there.  Under the proxy:

* every ``requires_prepare=False`` protocol of the golden harness
  reproduces its pinned digest, so the proxy changes nothing and the
  protocol never needed more than the standard interface;
* the site crash-point sweep of every such ``in_check`` protocol stays
  clean, which takes each one through site crash and restart.
"""

from __future__ import annotations

import pytest

import repro.integration.federation as federation_module
from repro.check import CHECK_PROTOCOLS, CheckSpec, explore_crash_points
from repro.core.protocols import PROTOCOL_REGISTRY
from repro.localdb.engine import LocalDatabase
from repro.localdb.interface import StandardTMInterface
from tests.protocols.test_golden_seed_protocols import (
    GOLDEN,
    SEED_PROTOCOLS,
    fingerprint,
)

#: The standard interface's whole surface.
PUBLIC = frozenset(name for name in dir(StandardTMInterface) if not name.startswith("_"))


class BeyondStandardTM(BaseException):
    """Something asked a standard TM for more than it offers."""


class StrictStandardTM:
    """A standard TM that answers only to the standard interface's names."""

    built = 0

    def __init__(self, engine):
        object.__setattr__(self, "_tm", StandardTMInterface(engine))
        StrictStandardTM.built += 1

    def __getattribute__(self, name):
        if name not in PUBLIC:
            raise BeyondStandardTM(f"{name!r} is not part of the standard TM interface")
        return getattr(object.__getattribute__(self, "_tm"), name)


def standard_only(protocol: str) -> bool:
    return not PROTOCOL_REGISTRY[protocol].requires_prepare


@pytest.fixture
def strict_sites(monkeypatch):
    """Build every standard site behind the strict proxy."""
    monkeypatch.setattr(federation_module, "StandardTMInterface", StrictStandardTM)
    built = StrictStandardTM.built
    yield
    assert StrictStandardTM.built > built, "no site was built behind the proxy"


def test_proxy_refuses_everything_beyond_the_standard_interface(kernel):
    tm = StrictStandardTM(LocalDatabase(kernel, "site"))
    assert tm.has_prepare is False
    for name in ("_engine", "_tm", "is_read_only", "ready_txn", "in_doubt"):
        with pytest.raises(BeyondStandardTM):
            getattr(tm, name)


@pytest.mark.parametrize(
    "protocol,granularity",
    [pair for pair in SEED_PROTOCOLS if standard_only(pair[0])],
)
def test_golden_scenario_on_the_standard_tm_alone(strict_sites, protocol, granularity):
    key = f"{protocol}/{granularity}"
    assert fingerprint(protocol, granularity) == GOLDEN[key]


@pytest.mark.parametrize(
    "protocol,granularity",
    [pair for pair in CHECK_PROTOCOLS if standard_only(pair[0])],
)
def test_site_crash_points_on_the_standard_tm_alone(strict_sites, protocol, granularity):
    report = explore_crash_points(CheckSpec(protocol=protocol, granularity=granularity))
    assert report.crash_points > 0
    assert report.violation_count == 0, report.summary()
