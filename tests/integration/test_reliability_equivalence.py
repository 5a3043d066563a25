"""Equivalence guarantees of the reliability layer.

Two locked-down behaviours:

* With every new fault knob at its default (no duplication, no
  reordering, no partitions, ``reliable=False``) the federation is
  byte-identical to the pre-reliability system: the golden numbers
  below were captured from the seed revision and must never drift.
* Turning ``reliable=True`` on over a *clean* network changes only the
  physical layer (acks appear, retransmit timers arm and cancel): the
  logical message counts, the outcomes and the final values stay
  exactly the same.
"""

import pytest

from repro.core.gtm import GTMConfig
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment


def scenario(protocol: str, granularity: str, **extra):
    preparable = protocol in ("2pc", "2pc-pa", "3pc")
    fed = Federation(
        [
            SiteSpec("s0", tables={"t0": {"x": 100, "y": 50}}, preparable=preparable),
            SiteSpec("s1", tables={"t1": {"x": 100, "y": 50}}, preparable=preparable),
        ],
        FederationConfig(
            seed=42,
            gtm=GTMConfig(protocol=protocol, granularity=granularity, msg_timeout=20),
            **extra,
        ),
    )
    outcomes = fed.run_transactions(
        [
            {"operations": [increment("t0", "x", -10), increment("t1", "x", 10)],
             "name": "T0", "delay": 0.0},
            {"operations": [increment("t1", "y", -5), increment("t0", "y", 5)],
             "name": "T1", "delay": 2.0},
            {"operations": [increment("t0", "x", -1), increment("t1", "y", 1)],
             "name": "T2", "delay": 4.0, "intends_abort": True},
        ]
    )
    return {
        "committed": sum(1 for o in outcomes if o.committed),
        "end_time": round(fed.kernel.now, 6),
        "sent": fed.network.sent,
        "delivered": fed.network.delivered,
        "dropped": fed.network.dropped,
        "envelopes": fed.network.envelopes,
        "by_kind": fed.network.message_counts(),
        "values": {
            "s0.x": fed.peek("s0", "t0", "x"),
            "s1.x": fed.peek("s1", "t1", "x"),
            "s0.y": fed.peek("s0", "t0", "y"),
            "s1.y": fed.peek("s1", "t1", "y"),
        },
    }, fed


#: Captured from the seed revision (pre-reliability).  A knobs-off run
#: must reproduce every one of these numbers exactly.  ``end_time`` was
#: re-pinned once, on purpose, when a granted lock wait stopped leaving
#: its timeout queued: the runs now end at their last real event.
GOLDEN = {
    ("2pc", "per_site"): {
        "by_kind": {"begin_subtxn": 30, "decide": 30, "execute_op": 28,
                    "finished": 30, "op_done": 17, "op_failed": 11,
                    "subtxn_begun": 30},
        "committed": 0, "delivered": 176, "dropped": 0, "end_time": 235.5,
        "envelopes": 176, "sent": 176,
        "values": {"s0.x": 100, "s0.y": 50, "s1.x": 100, "s1.y": 50},
    },
    ("2pc-pa", "per_site"): {
        "by_kind": {"begin_subtxn": 30, "decide": 30, "execute_op": 28,
                    "op_done": 17, "op_failed": 11, "subtxn_begun": 30},
        "committed": 0, "delivered": 146, "dropped": 0, "end_time": 225.5,
        "envelopes": 146, "sent": 146,
        "values": {"s0.x": 100, "s0.y": 50, "s1.x": 100, "s1.y": 50},
    },
    ("3pc", "per_site"): {
        "by_kind": {"begin_subtxn": 30, "decide": 30, "execute_op": 28,
                    "finished": 30, "op_done": 17, "op_failed": 11,
                    "subtxn_begun": 30},
        "committed": 0, "delivered": 176, "dropped": 0, "end_time": 235.5,
        "envelopes": 176, "sent": 176,
        "values": {"s0.x": 100, "s0.y": 50, "s1.x": 100, "s1.y": 50},
    },
    ("after", "per_site"): {
        "by_kind": {"begin_subtxn": 26, "decide": 26, "execute_op": 26,
                    "finished": 26, "op_done": 20, "op_failed": 6,
                    "subtxn_begun": 26},
        "committed": 0, "delivered": 156, "dropped": 0, "end_time": 233.6,
        "envelopes": 156, "sent": 156,
        "values": {"s0.x": 100, "s0.y": 50, "s1.x": 100, "s1.y": 50},
    },
    ("before", "per_action"): {
        "by_kind": {"execute_l0": 8, "l0_done": 8},
        "committed": 2, "delivered": 16, "dropped": 0, "end_time": 22.4,
        "envelopes": 16, "sent": 16,
        "values": {"s0.x": 90, "s0.y": 55, "s1.x": 110, "s1.y": 45},
    },
    ("before", "per_site"): {
        "by_kind": {"begin_subtxn": 6, "execute_op": 6, "finish_subtxn": 6,
                    "local_outcome": 6, "op_done": 6, "prepare": 6,
                    "subtxn_begun": 6, "undo_result": 2, "undo_subtxn": 2,
                    "vote": 6},
        "committed": 2, "delivered": 52, "dropped": 0, "end_time": 24.2,
        "envelopes": 52, "sent": 52,
        "values": {"s0.x": 90, "s0.y": 55, "s1.x": 110, "s1.y": 45},
    },
}


@pytest.mark.parametrize("protocol,granularity", sorted(GOLDEN))
def test_knobs_off_matches_seed_exactly(protocol, granularity):
    observed, fed = scenario(protocol, granularity)
    assert observed == GOLDEN[(protocol, granularity)]
    # And the reliability layer really stayed out of the way.
    counts = fed.network.reliability_counts()
    assert counts["acks_sent"] == 0
    assert counts["retransmissions"] == 0
    assert counts["duplicates_suppressed"] == 0


@pytest.mark.parametrize(
    "protocol,granularity",
    [("2pc", "per_site"), ("after", "per_site"), ("before", "per_action")],
)
def test_reliable_on_clean_network_is_transparent(protocol, granularity):
    """Acks are the only difference reliable delivery makes when
    nothing is actually lost."""

    def clean_scenario(**extra):
        preparable = protocol in ("2pc", "2pc-pa", "3pc")
        fed = Federation(
            [
                SiteSpec("s0", tables={"t0": {"x": 100, "y": 50}},
                         preparable=preparable),
                SiteSpec("s1", tables={"t1": {"x": 100, "y": 50}},
                         preparable=preparable),
            ],
            FederationConfig(
                seed=9,
                gtm=GTMConfig(protocol=protocol, granularity=granularity),
                **extra,
            ),
        )
        # Disjoint keys, staggered starts: no conflicts, no timeouts.
        outcomes = fed.run_transactions(
            [
                {"operations": [increment("t0", "x", -10), increment("t1", "x", 10)],
                 "delay": 0.0},
                {"operations": [increment("t1", "y", -5), increment("t0", "y", 5)],
                 "delay": 40.0},
            ]
        )
        return fed, [o.committed for o in outcomes]

    base_fed, base_outcomes = clean_scenario()
    rel_fed, rel_outcomes = clean_scenario(reliable=True)
    assert base_outcomes == rel_outcomes == [True, True]
    assert rel_fed.network.message_counts() == base_fed.network.message_counts()
    assert rel_fed.network.sent == base_fed.network.sent
    assert rel_fed.network.delivered == base_fed.network.delivered
    # The only timing difference is the final ack still in flight.
    assert base_fed.kernel.now <= rel_fed.kernel.now <= base_fed.kernel.now + 2.0
    # Physical acks exist only on the reliable run; nothing retried.
    assert base_fed.network.acks_sent == 0
    assert rel_fed.network.acks_sent > 0
    assert rel_fed.network.retransmissions == 0
    assert rel_fed.network.reliability_counts()["unacked_in_flight"] == 0
