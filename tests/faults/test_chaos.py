"""Deterministic chaos harness (EXP-R1).

Every seeded schedule -- message loss, duplication, reordering, link
partitions, crash/recover cycles -- must leave the federation with a
clean atomicity audit, a serializable history, conserved balances and
every global transaction terminal at every site within the post-fault
horizon.  The quick matrix below runs in the tier-1 suite; the full
20-seed sweep is a soak test (``-m soak``).

On failure the kernel trace of the offending run is dumped under
``chaos-artifacts/`` so a CI job can upload it for post-mortem.
"""

import gc
from pathlib import Path

import pytest

from repro.faults import CHAOS_PROTOCOLS, ChaosResult, ChaosSpec, run_chaos
from repro.net.network import _Xmit

ARTIFACT_DIR = Path(__file__).resolve().parents[2] / "chaos-artifacts"


def assert_chaos_ok(result: ChaosResult) -> None:
    """Assert a clean run, dumping the kernel trace when it is not."""
    if result.ok:
        return
    spec = result.spec
    ARTIFACT_DIR.mkdir(exist_ok=True)
    path = ARTIFACT_DIR / (
        f"chaos_{spec.protocol}_{spec.granularity}_seed{spec.seed}.trace"
    )
    with path.open("w") as fh:
        fh.write(f"# spec: {spec}\n")
        fh.write(f"# stuck: {result.stuck}\n")
        fh.write(f"# violations: {result.violations}\n")
        fh.write(f"# counters: {result.counters}\n")
        for record in result.federation.kernel.trace.records:
            fh.write(f"{record}\n")
    pytest.fail(
        f"chaos run failed for {spec.protocol}/{spec.granularity} "
        f"seed={spec.seed}: atomicity={result.atomicity_ok} "
        f"serializable={result.serializable} converged={result.converged} "
        f"conserved={result.conserved} stuck={result.stuck[:5]} "
        f"(trace dumped to {path})"
    )


@pytest.mark.parametrize("protocol,granularity", CHAOS_PROTOCOLS)
@pytest.mark.parametrize("seed", [7, 11])
def test_chaos_quick_matrix(protocol, granularity, seed):
    result = run_chaos(
        ChaosSpec(protocol=protocol, granularity=granularity, seed=seed)
    )
    assert_chaos_ok(result)
    assert result.committed + result.aborted == result.spec.n_txns


@pytest.mark.parametrize("protocol,granularity", CHAOS_PROTOCOLS)
def test_chaos_replays_deterministically(protocol, granularity):
    first = run_chaos(ChaosSpec(protocol=protocol, granularity=granularity, seed=3))
    second = run_chaos(ChaosSpec(protocol=protocol, granularity=granularity, seed=3))
    assert first.committed == second.committed
    assert first.aborted == second.aborted
    assert first.end_time == second.end_time
    assert first.counters == second.counters


def test_chaos_counters_recorded():
    result = run_chaos(ChaosSpec(protocol="2pc", seed=7))
    for key in (
        "retransmissions",
        "duplicates_suppressed",
        "abandoned_messages",
        "injected_crashes",
        "injected_partitions",
        "recovery_passes",
        "recovery_orphans_terminated",
    ):
        assert key in result.counters
    # Faults did fire: the schedule is not vacuous.
    assert result.counters["injected_crashes"] > 0
    assert result.counters["retransmissions"] > 0


def test_chaos_resolution_bounded():
    """Everything terminal well inside the post-fault horizon."""
    result = run_chaos(ChaosSpec(protocol="2pc-pa", seed=7))
    assert_chaos_ok(result)
    assert result.end_time < result.spec.resolution_horizon


@pytest.mark.soak
@pytest.mark.parametrize("protocol,granularity", CHAOS_PROTOCOLS)
@pytest.mark.parametrize("seed", list(range(20)))
def test_chaos_soak_matrix(protocol, granularity, seed):
    """The full EXP-R1 sweep: 20 seeded schedules per protocol."""
    result = run_chaos(
        ChaosSpec(protocol=protocol, granularity=granularity, seed=seed)
    )
    assert_chaos_ok(result)


def run_duplicating_chaos(protocol: str, granularity: str, seed: int) -> None:
    """Heavy duplication: the network's receiver filter, the only
    duplicate filter, keeps every audit clean on its own."""
    result = run_chaos(
        ChaosSpec(
            protocol=protocol, granularity=granularity, seed=seed, dup_rate=0.5
        )
    )
    assert_chaos_ok(result)
    assert result.counters["duplicates_suppressed"] > 0


@pytest.mark.parametrize("protocol,granularity", CHAOS_PROTOCOLS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chaos_heavy_duplication(protocol, granularity, seed):
    run_duplicating_chaos(protocol, granularity, seed)


def test_a_drained_duplicating_run_remembers_no_transmission():
    """The duplicate filter is a flag on each transmission's record,
    which lives only while a delivery or timer entry of it is queued:
    once the run drains, the network keeps no per-transmission state."""
    result = run_chaos(
        ChaosSpec(protocol="2pc", granularity="per_site", seed=1, dup_rate=0.5)
    )
    assert_chaos_ok(result)
    net = result.federation.network
    assert net.duplicates_suppressed > 0
    assert not net._pending_xmits
    topology_and_counters = {"_nodes", "_valid_links", "by_kind"}
    remembered = {
        name: value for name, value in vars(net).items()
        if isinstance(value, (set, dict)) and value and name not in topology_and_counters
    }
    assert remembered == {}
    gc.collect()
    assert not [
        obj for obj in gc.get_objects()
        if isinstance(obj, _Xmit) and obj.network is net
    ]


def test_a_drained_run_remembers_no_abandoned_request():
    """A request its requester gave up on is marked on the message, so
    the mark lives only as long as what carries it: once the run
    drains, the network keeps no abandoned id."""
    result = run_chaos(ChaosSpec(protocol="2pc", granularity="per_site", seed=2))
    assert_chaos_ok(result)
    fed = result.federation
    assert sum(coordinator.comm.timeouts for coordinator in fed.coordinators) > 0
    topology_and_counters = {"_nodes", "_valid_links", "by_kind"}
    remembered = {
        name: value for name, value in vars(fed.network).items()
        if isinstance(value, (set, dict)) and value and name not in topology_and_counters
    }
    assert remembered == {}


@pytest.mark.soak
@pytest.mark.parametrize("protocol,granularity", CHAOS_PROTOCOLS)
@pytest.mark.parametrize("seed", list(range(20)))
def test_chaos_heavy_duplication_soak(protocol, granularity, seed):
    run_duplicating_chaos(protocol, granularity, seed)


@pytest.mark.parametrize("batch_policy", ["static", "adaptive"])
@pytest.mark.parametrize("seed", [7, 11])
def test_chaos_with_batching_survives_crashes(batch_policy, seed):
    """Batched links + crash/recover cycles keep every safety audit.

    Regression scope: a sender crash inside a batch window used to
    leave the scheduled flush armed, so volatile pre-crash messages
    were transmitted on behalf of the dead node.  With the sender-side
    purge, a crashed site's buffered envelopes die with it and the
    reliable path retransmits whatever the *destination* missed.
    """
    result = run_chaos(
        ChaosSpec(
            protocol="2pc",
            seed=seed,
            batch_window=1.0,
            batch_policy=batch_policy,
            batch_max_msgs=4,
        )
    )
    assert_chaos_ok(result)
    assert result.committed + result.aborted == result.spec.n_txns
    assert result.counters["injected_crashes"] > 0
    assert result.federation.network.envelopes > 0


def test_chaos_batching_replays_deterministically():
    spec = dict(
        protocol="2pc", seed=5, batch_window=1.0,
        batch_policy="adaptive", batch_max_msgs=4,
    )
    first = run_chaos(ChaosSpec(**spec))
    second = run_chaos(ChaosSpec(**spec))
    assert first.committed == second.committed
    assert first.end_time == second.end_time
    assert first.counters == second.counters


def test_a_drained_run_keeps_no_observed_failure():
    """A failed process someone joined was handled: once the run ends,
    the kernel keeps only failures nobody observed, so no exception's
    traceback holds the frames of a handled failure."""
    result = run_chaos(ChaosSpec(protocol="2pc", granularity="per_site", seed=2))
    assert_chaos_ok(result)
    failures = result.federation.kernel.failures
    assert [entry for entry in failures if entry[0]._observed] == []
