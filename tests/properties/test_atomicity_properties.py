"""End-to-end property: random workloads + faults never break atomicity.

For every protocol, random transfer workloads (with intended aborts and
injected erroneous aborts) must leave the federation with a clean audit
of the *full* shared invariant battery (:func:`check_invariants`):
atomicity, serializability, convergence, lock release, redo/undo drain
(§3.2), inverse-transaction ordering (§3.3) and conservation of the
declared accounts -- transfers are zero-sum -- the same predicates the
``repro.check`` exploration engine evaluates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import protocol_federation
from repro.core.invariants import check_invariants
from repro.faults import FaultInjector
from repro.integration.federation import SiteSpec
from repro.workloads.banking import all_accounts, transfer

#: Every account and its initial balance: the battery's conservation cells.
ACCOUNTS = dict.fromkeys(all_accounts(2, 3), 100)


def build(protocol, granularity, seed):
    specs = [
        SiteSpec(f"bank_{i}", tables={f"accounts_{i}": {f"acct{i}_{j}": 100 for j in range(3)}})
        for i in range(2)
    ]
    return protocol_federation(protocol, specs, granularity=granularity, seed=seed)


@given(
    seed=st.integers(min_value=0, max_value=200),
    protocol=st.sampled_from(["before", "after", "2pc", "saga"]),
    n_txns=st.integers(min_value=1, max_value=6),
    abort_rate=st.sampled_from([0.0, 0.5]),
)
@settings(max_examples=25, deadline=None)
def test_money_conserved_under_random_mixes(seed, protocol, n_txns, abort_rate):
    granularity = "per_action" if protocol in ("before", "saga") else "per_site"
    fed = build(protocol, granularity, seed)
    rng = fed.kernel.rng.stream("workload")
    batches = []
    for i in range(n_txns):
        batches.append(
            {
                "operations": transfer(rng, 2, 3),
                "intends_abort": rng.random() < abort_rate,
                "delay": rng.uniform(0, 10),
            }
        )
    fed.run_transactions(batches)
    violations = check_invariants(fed, conserved=ACCOUNTS)
    if protocol == "saga":
        # Sagas trade serializability for compensation-based atomicity;
        # every other obligation still holds.
        violations = [v for v in violations if v.invariant != "serializability"]
    assert violations == []


@given(seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=15, deadline=None)
def test_commit_after_atomic_under_erroneous_aborts(seed):
    fed = build("after", "per_site", seed)
    injector = FaultInjector(fed)
    injector.erroneous_aborts_after_ready(probability=0.7, delay=0.3)
    rng = fed.kernel.rng.stream("workload")
    batches = [
        {"operations": transfer(rng, 2, 3), "delay": rng.uniform(0, 15)}
        for _ in range(4)
    ]
    outcomes = fed.run_transactions(batches)
    # Erroneous aborts after READY exercise the redo log (§3.2): the
    # full battery checks it drained once every decision resolved.
    assert check_invariants(fed, conserved=ACCOUNTS) == []
    assert all(o.committed for o in outcomes)  # redo masks the faults


@given(seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=10, deadline=None)
def test_commit_before_atomic_under_crash(seed):
    fed = build("before", "per_action", seed)
    fed.gtm.config.msg_timeout = 10
    fed.gtm.config.status_poll_interval = 5
    injector = FaultInjector(fed)
    rng = fed.kernel.rng.stream("crash-plan")
    injector.crash_site("bank_1", at=rng.uniform(1, 12), recover_after=40)
    workload_rng = fed.kernel.rng.stream("workload")
    batches = [
        {
            "operations": transfer(workload_rng, 2, 3),
            "intends_abort": workload_rng.random() < 0.3,
        }
        for _ in range(3)
    ]
    fed.run_transactions(batches)
    assert check_invariants(fed, conserved=ACCOUNTS) == []


@given(seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=10, deadline=None)
def test_commit_before_undoes_in_inverse_order(seed):
    # §3.3: a commit-before abort runs inverse transactions; the
    # inverse_order invariant audits they applied in reverse.
    fed = build("before", "per_action", seed)
    rng = fed.kernel.rng.stream("workload")
    batches = [
        {"operations": transfer(rng, 2, 3), "intends_abort": True}
        for _ in range(3)
    ]
    outcomes = fed.run_transactions(batches)
    assert all(not o.committed for o in outcomes)
    assert check_invariants(fed, conserved=ACCOUNTS) == []
