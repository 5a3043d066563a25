"""Property-based tests of the lock manager at L0 and L1.

Workers run to completion or the test fails: the kernel runs with
``raise_failures=False`` (a victim's process may end in an exception),
so each property also asserts that every worker reached its end --
an error inside a worker, or inside a consistency check it runs, must
not pass as a clean run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockDetected, LockTimeout
from repro.localdb.locks import LockManager, LockMode
from repro.mlt.conflicts import SEMANTIC_TABLE
from repro.sim.kernel import Kernel

l0_modes = st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE])
l1_modes = st.sampled_from([LockMode.SHARED, LockMode.INCREMENT, LockMode.EXCLUSIVE])
resources = st.sampled_from(["r1", "r2"])
txn_names = st.sampled_from(["t1", "t2", "t3"])


@st.composite
def lock_scripts(draw):
    """Sequences of (txn, action) where action is acquire or release."""
    steps = draw(
        st.lists(
            st.tuples(
                txn_names,
                st.sampled_from(["acquire", "release"]),
                resources,
                l0_modes,
            ),
            min_size=1,
            max_size=15,
        )
    )
    return steps


def holders_consistent(manager: LockManager) -> bool:
    """Each holder holds one mode, and no two holders of one resource
    hold modes the manager's table says are incompatible."""
    for resource in list(manager._resources):
        items = list(manager.holders_of(resource).items())
        for i, (txn_a, mode_a) in enumerate(items):
            if not isinstance(mode_a, LockMode):
                return False
            for txn_b, mode_b in items[i + 1:]:
                if not manager.table.compatible(mode_a, mode_b):
                    return False
    return True


@given(script=lock_scripts(), seed=st.integers(min_value=0, max_value=999))
@settings(max_examples=60, deadline=None)
def test_l0_no_incompatible_coholders_ever(script, seed):
    kernel = Kernel(seed=seed)
    manager = LockManager(kernel, "s", default_timeout=30)
    violations = []
    finished = []

    def worker(txn, steps):
        for action, resource, mode in steps:
            try:
                if action == "acquire":
                    yield from manager.acquire(txn, resource, mode)
                else:
                    manager.release_all(txn)
            except (DeadlockDetected, LockTimeout):
                break
            if not holders_consistent(manager):
                violations.append((txn, action, resource))
            yield 0.1
        manager.release_all(txn)
        finished.append(txn)

    by_txn: dict[str, list] = {}
    for txn, action, resource, mode in script:
        by_txn.setdefault(txn, []).append((action, resource, mode))
    for txn, steps in by_txn.items():
        kernel.spawn(worker(txn, steps))
    kernel.run(raise_failures=False)
    assert not violations
    assert sorted(finished) == sorted(by_txn)


@given(
    script=st.lists(
        st.tuples(txn_names, resources, l1_modes), min_size=1, max_size=15
    ),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=60, deadline=None)
def test_l1_no_conflicting_coholders_ever(script, seed):
    kernel = Kernel(seed=seed)
    manager = LockManager(kernel, "L1", SEMANTIC_TABLE, default_timeout=30)
    violations = []
    finished = []

    def worker(txn, steps):
        for resource, mode in steps:
            try:
                yield from manager.acquire(txn, resource, mode)
            except (DeadlockDetected, LockTimeout):
                break
            if not holders_consistent(manager):
                violations.append((txn, resource, mode))
            yield 0.1
        manager.release_all(txn)
        finished.append(txn)

    by_txn: dict[str, list] = {}
    for txn, resource, mode in script:
        by_txn.setdefault(txn, []).append((resource, mode))
    for txn, steps in by_txn.items():
        kernel.spawn(worker(txn, steps))
    kernel.run(raise_failures=False)
    assert not violations
    assert sorted(finished) == sorted(by_txn)


@given(
    script=st.lists(
        st.tuples(txn_names, resources, l1_modes), min_size=1, max_size=12
    ),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=40, deadline=None)
def test_l1_all_workers_terminate(script, seed):
    """With timeouts + deadlock detection nobody hangs forever."""
    kernel = Kernel(seed=seed)
    manager = LockManager(kernel, "L1", SEMANTIC_TABLE, default_timeout=20)
    finished = []

    def worker(txn, steps):
        for resource, mode in steps:
            try:
                yield from manager.acquire(txn, resource, mode)
            except (DeadlockDetected, LockTimeout):
                break
            yield 1
        manager.release_all(txn)
        finished.append(txn)

    by_txn: dict[str, list] = {}
    for txn, resource, mode in script:
        by_txn.setdefault(txn, []).append((resource, mode))
    for txn, steps in by_txn.items():
        kernel.spawn(worker(txn, steps))
    kernel.run(raise_failures=False)
    assert len(finished) == len(by_txn)
