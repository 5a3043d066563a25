"""The configuration surface is pinned: no knob grows back unnoticed.

A setting that no caller outside the tests varies is a constant on the
one class that reads it, not a config field threaded through two
constructors.  This test pins the exact field names of the three config
dataclasses (plus ``ChaosSpec`` and ``Network.__init__``), checks that
every deleted name is refused, and pins each constant to the default
its field used to carry -- so adding a knob back, or moving a default,
means editing this file.  Tests that need another value set the
constant on the instance or with ``monkeypatch``.
"""

import ast
import dataclasses
import inspect
import pathlib
import re

import pytest

import repro
from repro.core.gtm import GlobalTransactionManager, GTMConfig
from repro.core.protocols.commit_after import CommitAfter
from repro.core.protocols.paxos_commit import PaxosCommit
from repro.dataplane.manager import DataPlane
from repro.faults.chaos import ChaosSpec
from repro.integration.federation import FederationConfig
from repro.localdb.config import LocalDBConfig
from repro.net.network import Network

SRC = pathlib.Path(repro.__file__).parent

FEDERATION_FIELDS = (
    "seed", "latency", "loss_rate", "batch_window", "batch_policy",
    "batch_max_msgs", "dup_rate", "reorder_rate", "reliable",
    "retransmit_timeout", "log_placement", "metrics", "spans",
    "coordinators", "paxos_f", "placement", "gtm",
)
GTM_FIELDS = (
    "protocol", "granularity", "l1_table", "msg_timeout",
    "status_poll_interval", "optimize_undo", "pipeline_window",
    "pipeline_policy", "pipeline_max_group", "piggyback_decisions",
)
LOCALDB_FIELDS = (
    "storage", "scheduler", "lock_timeout", "buffer_capacity",
    "group_commit_window",
)
NETWORK_PARAMETERS = (
    "kernel", "latency", "loss_rate", "batch_window", "batch_policy",
    "batch_max_msgs", "dup_rate", "reorder_rate", "reliable",
    "retransmit_timeout",
)

#: (owner, constant) -> the default of the field it replaced.
CONSTANTS = {
    (Network, "REORDER_SPREAD"): 5.0,
    (Network, "RETRANSMIT_BACKOFF"): 2.0,
    (Network, "MAX_RETRANSMITS"): 12,
    (Network, "MAX_RETRANSMIT_DELAY"): 300.0,
    (DataPlane, "LEASE_TIMEOUT"): 40.0,
    (DataPlane, "DRAIN_POLL_INTERVAL"): 5.0,
    (GlobalTransactionManager, "L1_TIMEOUT"): 150.0,
    (GlobalTransactionManager, "RETRY_ATTEMPTS"): 5,
    (GlobalTransactionManager, "RETRY_BACKOFF"): 5.0,
    (CommitAfter, "MAX_REDO_ROUNDS"): 50,
    (PaxosCommit, "PAXOS_TAKEOVER_TIMEOUT"): 80.0,
    (ChaosSpec, "PARTITION_DURATION"): 40.0,
    (ChaosSpec, "ACCEPTOR_OUTAGE"): 0.0,
    (ChaosSpec, "intended_abort_every"): 4,
}

#: Identifiers of deleted code paths; none may reappear under src/repro.
GONE = (
    "ROUTINGS", "UniformLatency", "enforce_star", "deadlock_detection", "default_buckets",
    "AnyOf", "call_at_bulk", "_effect_uids", "WaitsForGraph", "find_cycle_from",
    "_restate_blockers", "BufferPoolFull", "wait_with_timeout", "wake_from",
    "add_callback", "_coordinator_index", "_is_acceptor", "_serve_process",
    "chaos_matrix", "partition_duration", "acceptor_outage", "per_action_protocols",
)


def field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def test_config_field_names_are_pinned():
    assert field_names(FederationConfig) == FEDERATION_FIELDS
    assert field_names(GTMConfig) == GTM_FIELDS
    assert field_names(LocalDBConfig) == LOCALDB_FIELDS
    total = len(FEDERATION_FIELDS) + len(GTM_FIELDS) + len(LOCALDB_FIELDS)
    assert (len(FEDERATION_FIELDS), len(GTM_FIELDS), len(LOCALDB_FIELDS), total) == (
        17, 10, 5, 32,
    )


def test_chaos_spec_and_network_surface():
    assert len(dataclasses.fields(ChaosSpec)) == 33
    assert "lease_timeout" not in field_names(ChaosSpec)
    parameters = tuple(inspect.signature(Network.__init__).parameters)[1:]
    assert parameters == NETWORK_PARAMETERS


@pytest.mark.parametrize(
    "cls,name",
    [
        (FederationConfig, name)
        for name in (
            "latency_jitter", "reorder_spread", "retransmit_backoff",
            "max_retransmits", "max_retransmit_delay", "coordinator_routing",
            "lease_timeout",
        )
    ]
    + [
        (GTMConfig, name)
        for name in (
            "l1_timeout", "retry_attempts", "retry_backoff", "max_redo_rounds",
            "paxos_takeover_timeout", "durable_status",
        )
    ]
    + [(LocalDBConfig, "deadlock_detection"), (LocalDBConfig, "default_buckets")],
)
def test_deleted_field_is_refused(cls, name):
    with pytest.raises(TypeError):
        cls(**{name: None})


@pytest.mark.parametrize(
    "name",
    ["enforce_star", "reorder_spread", "retransmit_backoff", "max_retransmits",
     "max_retransmit_delay"],
)
def test_deleted_network_parameter_is_refused(kernel, name):
    with pytest.raises(TypeError):
        Network(kernel, **{name: None})


@pytest.mark.parametrize(
    "owner,name", list(CONSTANTS), ids=[f"{o.__name__}.{n}" for o, n in CONSTANTS]
)
def test_constant_keeps_the_old_default(owner, name):
    assert getattr(owner, name) == CONSTANTS[owner, name]


def _class_constant_assignments() -> dict[str, list[str]]:
    """Constant name -> ``module:Class`` of every class-level assignment."""
    wanted = {name for _, name in CONSTANTS}
    found: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for statement in node.body:
                targets = (
                    statement.targets if isinstance(statement, ast.Assign)
                    else [statement.target] if isinstance(statement, ast.AnnAssign)
                    else []
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in wanted:
                        found.setdefault(target.id, []).append(
                            f"{path.relative_to(SRC)}:{node.name}"
                        )
    return found


def test_each_constant_is_declared_exactly_once():
    found = _class_constant_assignments()
    for owner, name in CONSTANTS:
        assert found.get(name) == [
            f"{pathlib.Path(inspect.getfile(owner)).relative_to(SRC)}:{owner.__name__}"
        ], f"{name} declared at {found.get(name)}"


def test_deleted_code_paths_stay_deleted():
    pattern = re.compile(r"\b(" + "|".join(GONE) + r")\b")
    offenders = [
        f"{path.relative_to(SRC)}:{match.group(1)}"
        for path in sorted(SRC.rglob("*.py"))
        for match in pattern.finditer(path.read_text())
    ]
    assert not offenders, offenders
