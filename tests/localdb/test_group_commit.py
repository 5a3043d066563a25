"""Group commit: batched log forces."""


from repro.localdb.config import LocalDBConfig
from repro.localdb.engine import LocalDatabase
from tests.conftest import run


def make_db(kernel, window):
    db = LocalDatabase(
        kernel, "gc-site",
        LocalDBConfig(group_commit_window=window),
    )

    def init():
        yield from db.create_table("t", 8)
        txn = db.begin()
        for i in range(6):
            yield from db.insert(txn, "t", f"k{i}", 0)
        yield from db.commit(txn)

    run(kernel, init())
    return db


def commit_concurrently(kernel, db, n):
    def worker(i):
        txn = db.begin()
        yield from db.write(txn, "t", f"k{i}", i)
        yield from db.commit(txn)

    processes = [kernel.spawn(worker(i)) for i in range(n)]
    kernel.run()
    return processes


def test_concurrent_commits_share_one_force(kernel):
    db = make_db(kernel, window=2.0)
    forces_before = db.disk.log_forces
    commit_concurrently(kernel, db, 5)
    # All five commits (on distinct pages) ride 1-2 disk forces instead
    # of five.
    assert db.disk.log_forces - forces_before <= 2


def test_without_group_commit_each_commit_forces(kernel):
    db = make_db(kernel, window=0.0)
    forces_before = db.disk.log_forces
    commit_concurrently(kernel, db, 5)
    assert db.disk.log_forces - forces_before == 5


def test_group_commit_adds_bounded_latency(kernel):
    db = make_db(kernel, window=3.0)

    def lone_committer():
        txn = db.begin()
        yield from db.write(txn, "t", "k0", 1)
        start = kernel.now
        yield from db.commit(txn)
        return kernel.now - start

    latency = run(kernel, lone_committer())
    # One window + one force, not more.
    assert latency <= 3.0 + db.config.storage.log_force_time + 1.0


def test_grouped_commits_are_durable(kernel):
    db = make_db(kernel, window=2.0)
    commit_concurrently(kernel, db, 5)
    db.crash()
    run(kernel, db.restart())

    def read_all():
        txn = db.begin()
        values = []
        for i in range(5):
            value = yield from db.read(txn, "t", f"k{i}")
            values.append(value)
        yield from db.commit(txn)
        return values

    assert run(kernel, read_all()) == [0, 1, 2, 3, 4]


def test_crash_during_window_loses_only_unforced(kernel):
    db = make_db(kernel, window=5.0)
    results = {}

    def committer():
        txn = db.begin()
        yield from db.write(txn, "t", "k0", 99)
        try:
            yield from db.commit(txn)
            results["committed"] = True
        except Exception as exc:
            results["committed"] = type(exc).__name__

    kernel.spawn(committer())
    kernel.call_at(kernel.now + 2.0, db.crash)  # inside the window
    kernel.run(raise_failures=False)
    assert results["committed"] in ("SiteCrashed", "TransactionAborted")
    run(kernel, db.restart())

    def read():
        txn = db.begin()
        value = yield from db.read(txn, "t", "k0")
        yield from db.commit(txn)
        return value

    assert run(kernel, read()) == 0  # the unforced commit is gone


def test_late_joiner_triggers_second_round(kernel):
    db = make_db(kernel, window=2.0)

    def early():
        txn = db.begin()
        yield from db.write(txn, "t", "k0", 1)
        yield from db.commit(txn)

    def late():
        yield 2.5  # arrives while the first group is flushing
        txn = db.begin()
        yield from db.write(txn, "t", "k1", 2)
        yield from db.commit(txn)
        return kernel.now

    kernel.spawn(early())
    process = kernel.spawn(late())
    kernel.run()
    assert process.done  # the second round picked it up; no hang
