"""Protocols over an unreliable network.

Message loss turns every request/reply into a maybe; the protocols'
retry and status-inquiry machinery (plus the idempotence markers) must
deliver exactly-once effects anyway.
"""

import pytest

from repro.core.gtm import GTMConfig
from repro.core.invariants import atomicity_report
from repro.faults import FaultInjector
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment


def build(protocol: str, granularity: str, loss_rate: float, seed: int) -> Federation:
    preparable = protocol in ("2pc", "3pc")
    fed = Federation(
        [
            SiteSpec("s0", tables={"t0": {"x": 100}}, preparable=preparable),
            SiteSpec("s1", tables={"t1": {"x": 100}}, preparable=preparable),
        ],
        FederationConfig(
            seed=seed,
            loss_rate=loss_rate,
            gtm=GTMConfig(
                protocol=protocol, granularity=granularity,
                msg_timeout=12, status_poll_interval=4,
            ),
        ),
    )
    fed.gtm.RETRY_ATTEMPTS = 10
    return fed


TRANSFER = [increment("t0", "x", -10), increment("t1", "x", 10)]


@pytest.mark.parametrize(
    "protocol,granularity",
    [("before", "per_action"), ("after", "per_site"), ("2pc", "per_site")],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_transfer_survives_10pct_loss(protocol, granularity, seed):
    fed = build(protocol, granularity, loss_rate=0.10, seed=seed)
    process = fed.submit(TRANSFER)
    fed.run()
    outcome = process.value
    total = fed.peek("s0", "t0", "x") + fed.peek("s1", "t1", "x")
    assert total == 200, "money lost or duplicated under message loss"
    assert atomicity_report(fed).ok
    if outcome.committed:
        assert fed.peek("s0", "t0", "x") == 90
    else:
        assert fed.peek("s0", "t0", "x") == 100


def test_lost_decide_message_resent_until_answered():
    """Drop the first decide; the coordinator must re-deliver it."""
    fed = build("after", "per_site", loss_rate=0.0, seed=5)
    FaultInjector(fed).lose_next_message("decide")
    process = fed.submit(TRANSFER)
    fed.run()
    assert process.value.committed
    assert fed.peek("s0", "t0", "x") == 90
    assert fed.peek("s1", "t1", "x") == 110
    # The decide was sent more than twice (one per site + the resend).
    assert fed.network.message_counts()["decide"] >= 3


def test_lost_undo_reply_does_not_double_undo():
    """The undo result is lost; the retried undo must hit the marker
    guard instead of running the inverse twice."""
    fed = build("before", "per_action", loss_rate=0.0, seed=6)
    FaultInjector(fed).lose_next_message("l0_done")
    process = fed.submit(TRANSFER, intends_abort=True)
    fed.run()
    assert not process.value.committed
    assert fed.peek("s0", "t0", "x") == 100
    assert fed.peek("s1", "t1", "x") == 100
    assert atomicity_report(fed).ok


def test_lost_vote_aborts_2pc_cleanly():
    fed = build("2pc", "per_site", loss_rate=0.0, seed=7)
    fed.gtm.RETRY_ATTEMPTS = 0
    FaultInjector(fed).lose_next_message("vote")
    process = fed.submit(TRANSFER)
    fed.run()
    # Missing vote counts as abort; locals roll back from ready/running.
    assert not process.value.committed
    assert fed.peek("s0", "t0", "x") == 100
    assert fed.peek("s1", "t1", "x") == 100
