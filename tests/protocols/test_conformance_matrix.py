"""Cross-protocol conformance matrix, driven by the protocol registry.

Every protocol in :data:`repro.core.protocols.PROTOCOL_REGISTRY` is
swept through the same battery:

* the **invariant battery** (conservation, global atomicity, and --
  for the protocols that promise it -- global serializability) under a
  faulted transfer workload;
* a **crash-at-every-force** sweep (one controlled execution per
  durable log-force boundary, each crashing the forcing site) for
  every checker-enrolled protocol;
* a **chaos level-1 pass** (the default EXP-R1 fault schedule) for
  every chaos-enrolled protocol.

The parametrizations are derived from the registry itself, and the
consumer-completeness test pins every derived protocol list to it, so
registering a protocol without harness coverage -- or wiring a harness
list by hand and letting it drift -- fails loudly right here.
"""

import pytest

from repro.check import CheckSpec, explore_crash_points
from repro.check.scenarios import CHECK_PROTOCOLS, MUTANTS
from repro.core.invariants import check_invariants
from repro.core.protocols import (
    PROTOCOL_REGISTRY,
    chaos_matrix_protocols,
    check_matrix,
    make_protocol,
    preparable_protocols,
    protocol_info,
    protocol_mutants,
    protocol_names,
    redo_window_protocols,
)
from repro.faults import CHAOS_PROTOCOLS, ChaosSpec, FaultInjector, run_chaos
from repro.bench.harness import protocol_federation
from repro.integration.federation import SiteSpec
from repro.workloads.banking import all_accounts, transfer

from tests.faults.test_chaos import assert_chaos_ok

# ----------------------------------------------------------------------
# Registry <-> consumer completeness (no hand-maintained list may drift)
# ----------------------------------------------------------------------


def test_every_registered_protocol_loads_and_instantiates():
    for name in protocol_names():
        info = protocol_info(name)
        protocol = make_protocol(name)
        assert type(protocol) is info.load()


def test_no_consumer_list_misses_a_protocol():
    from repro.__main__ import PROTOCOLS

    assert tuple(PROTOCOLS) == protocol_names()
    assert CHECK_PROTOCOLS == check_matrix()
    assert CHAOS_PROTOCOLS == chaos_matrix_protocols()
    assert {name for name, _g in CHECK_PROTOCOLS} == {
        info.name for info in PROTOCOL_REGISTRY.values() if info.in_check
    }
    assert {name for name, _g in CHAOS_PROTOCOLS} == {
        info.name for info in PROTOCOL_REGISTRY.values() if info.in_chaos
    }
    # Every registry-declared mutant is a valid ``repro.check --mutant``.
    for mutant, target in protocol_mutants().items():
        assert mutant in MUTANTS
        assert target in PROTOCOL_REGISTRY
        CheckSpec(protocol=target, granularity=protocol_info(target).granularity,
                  mutant=mutant)  # must validate


def test_registry_mutants_reject_wrong_protocol():
    for mutant, target in protocol_mutants().items():
        other = next(n for n in protocol_names() if n != target)
        with pytest.raises(ValueError):
            CheckSpec(protocol=other, mutant=mutant)


def test_cli_accepts_every_checkable_protocol_and_mutant():
    from repro.check.cli import build_parser

    parser = build_parser()
    for protocol, _granularity in CHECK_PROTOCOLS:
        args = parser.parse_args(["--protocol", protocol])
        assert args.protocol == protocol
    for mutant in MUTANTS:
        target = protocol_mutants().get(mutant, "before")
        args = parser.parse_args(["--protocol", target, "--mutant", mutant])
        assert args.mutant == mutant


# ----------------------------------------------------------------------
# Invariant battery: every protocol, faults on
# ----------------------------------------------------------------------


#: Every account of :func:`run_battery` and its initial balance.
ACCOUNTS = dict.fromkeys(all_accounts(2, 3), 100)


def run_battery(protocol: str, granularity: str, seed: int):
    specs = [
        SiteSpec(
            f"bank_{i}",
            tables={f"accounts_{i}": {f"acct{i}_{j}": 100 for j in range(3)}},
            preparable=protocol in preparable_protocols(),
        )
        for i in range(2)
    ]
    fed = protocol_federation(
        protocol, specs, granularity=granularity, seed=seed, msg_timeout=25
    )
    fed.gtm.config.status_poll_interval = 8
    injector = FaultInjector(fed)
    if protocol in redo_window_protocols():
        injector.erroneous_aborts_after_ready(probability=0.4, delay=0.3)
    injector.crash_site("bank_1", at=60.0, recover_after=50.0)
    rng = fed.kernel.rng.stream("conformance")
    batches = [
        {
            "operations": transfer(rng, 2, 3),
            "intends_abort": rng.random() < 0.2,
            "delay": rng.uniform(0, 120),
        }
        for _ in range(6)
    ]
    fed.run_transactions(batches)
    return fed


@pytest.mark.parametrize("protocol", protocol_names())
def test_invariant_battery(protocol):
    info = protocol_info(protocol)
    fed = run_battery(protocol, info.granularity, seed=311)
    violations = check_invariants(fed, conserved=ACCOUNTS)
    if not info.serializable:
        violations = [v for v in violations if v.invariant != "serializability"]
    assert violations == []


# ----------------------------------------------------------------------
# Crash at every durable force boundary: every checkable protocol
# ----------------------------------------------------------------------


@pytest.mark.parametrize("protocol,granularity", check_matrix())
def test_crash_at_every_force_keeps_invariants(protocol, granularity):
    spec = CheckSpec(protocol=protocol, granularity=granularity)
    report = explore_crash_points(spec)
    assert report.crash_points > 0, "a committing run must force site logs"
    assert report.executions == report.crash_points
    assert report.violation_count == 0, (
        report.counterexample and report.counterexample.violations
    )


# ----------------------------------------------------------------------
# Chaos level 1 (the default EXP-R1 schedule): every chaos protocol
# ----------------------------------------------------------------------


@pytest.mark.parametrize("protocol,granularity", chaos_matrix_protocols())
def test_chaos_level1(protocol, granularity):
    result = run_chaos(
        ChaosSpec(protocol=protocol, granularity=granularity, seed=13)
    )
    assert_chaos_ok(result)
    assert result.committed + result.aborted == result.spec.n_txns
