"""Federation-level properties: topology, traces, conflict-table laws."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import protocol_federation
from repro.integration.federation import SiteSpec
from repro.localdb.locks import LockMode
from repro.mlt.conflicts import READ_WRITE_TABLE, SEMANTIC_TABLE
from repro.workloads import WorkloadGenerator, WorkloadSpec

KINDS = ("read", "write", "increment", "insert", "delete")


@given(
    seed=st.integers(min_value=0, max_value=100),
    protocol=st.sampled_from(["before", "after", "2pc", "saga"]),
)
@settings(max_examples=12, deadline=None)
def test_star_topology_holds_under_any_protocol(seed, protocol):
    """No run, under any protocol and seed, produces a local-to-local
    message (Figure 1's structural invariant)."""
    granularity = "per_action" if protocol in ("before", "saga") else "per_site"
    specs = [
        SiteSpec(f"s{i}", tables={f"t{i}": {"k": 10}}) for i in range(3)
    ]
    fed = protocol_federation(protocol, specs, granularity=granularity, seed=seed)
    generator = WorkloadGenerator(
        WorkloadSpec(ops_per_txn=3, read_fraction=0.3, increment_fraction=0.7),
        [(f"t{i}", "k") for i in range(3)],
    )
    rng = fed.kernel.rng.stream("w")
    batches = [
        {"operations": generator.next_transaction(rng)[0]} for _ in range(3)
    ]
    fed.run_transactions(batches)
    for record in fed.kernel.trace.select(category="message"):
        assert "central" in (record.site, record.details["dest"])


@given(
    a=st.sampled_from(KINDS),
    b=st.sampled_from(KINDS),
)
@settings(max_examples=50)
def test_conflict_tables_symmetric_and_rw_dominates(a, b):
    """Both tables are symmetric, and the semantic table never adds a
    conflict the read/write table lacks (it only removes them)."""
    for table in (SEMANTIC_TABLE, READ_WRITE_TABLE):
        assert table.conflicts(a, b) == table.conflicts(b, a)
    if SEMANTIC_TABLE.conflicts(a, b):
        assert READ_WRITE_TABLE.conflicts(a, b)


@given(a=st.sampled_from(list(LockMode)), b=st.sampled_from(list(LockMode)))
@settings(max_examples=25)
def test_exclusive_conflicts_with_everything(a, b):
    if LockMode.EXCLUSIVE in (a, b):
        assert not SEMANTIC_TABLE.compatible(a, b)
        assert not READ_WRITE_TABLE.compatible(a, b)


@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=10, deadline=None)
def test_gtxn_states_always_reach_a_final_state(seed):
    """Every global transaction's trace ends in committed or aborted."""
    specs = [SiteSpec("s0", tables={"t0": {"k": 10}})]
    fed = protocol_federation("before", specs, granularity="per_action", seed=seed)
    rng = fed.kernel.rng.stream("w")
    batches = [
        {
            "operations": [
                WorkloadGenerator(
                    WorkloadSpec(ops_per_txn=2, read_fraction=0.0, increment_fraction=1.0),
                    [("t0", "k")],
                ).next_transaction(rng)[0][0]
            ],
            "intends_abort": rng.random() < 0.5,
        }
        for _ in range(4)
    ]
    fed.run_transactions(batches)
    for gtxn in fed.kernel.trace.subjects("gtxn_state"):
        states = [
            r.details["state"]
            for r in fed.kernel.trace.select(category="gtxn_state", subject=gtxn)
        ]
        assert states[-1] in ("committed", "aborted"), (gtxn, states)
