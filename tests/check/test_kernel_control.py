"""The controlled scheduler must not disturb uncontrolled runs.

Three guarantees:

* With no scheduler installed (the default), the kernel takes the
  historic fast run loop -- traces of non-checker runs stay
  byte-identical.
* A controlled run that always takes choice 0 fires events in exactly
  the default loop's order, so its trace is byte-identical too (the
  checker's "default schedule" really is the production schedule).
* The satellite fixes underneath the checker hold: queue entries are
  ordered by ``(time, sequence)`` alone, and forked RNG families cannot
  collide with the root streams or with each other.
"""

import hashlib
import random

from repro.check import CheckSpec, ReplayStrategy, build_scenario
from repro.sim.kernel import Kernel
from repro.sim.rng import RandomStreams

SPEC = CheckSpec(protocol="2pc", granularity="per_site")


def _trace_text(scenario) -> str:
    return scenario.federation.kernel.trace.dump()


def test_uncontrolled_runs_are_byte_identical():
    first = build_scenario(SPEC)
    first.federation.run(until=SPEC.horizon)
    second = build_scenario(SPEC)
    second.federation.run(until=SPEC.horizon)
    assert _trace_text(first) == _trace_text(second)


def test_choice_zero_controlled_run_matches_default_loop():
    plain = build_scenario(SPEC)
    plain.federation.run(until=SPEC.horizon)

    controlled = build_scenario(SPEC)
    controlled.federation.kernel.scheduler = ReplayStrategy([])
    controlled.federation.run(until=SPEC.horizon)

    assert _trace_text(controlled) == _trace_text(plain)


def test_scheduler_defaults_to_none():
    assert Kernel(seed=0).scheduler is None


# -- satellite: total event ordering ----------------------------------------


def test_queue_entries_are_ordered_by_time_and_sequence_alone():
    # Every entry carries its own sequence number, so comparing two
    # ``(time, seq, fn, args)`` entries never reaches ``fn`` or ``args``.
    scenario = build_scenario(SPEC)
    kernel = scenario.federation.kernel
    entries = [entry for bucket in kernel._buckets.values() for entry in bucket]
    assert len(entries) > 1
    assert len({entry[1] for entry in entries}) == len(entries)


# -- satellite: fork-path RNG derivation ------------------------------------


def test_root_stream_derivation_is_byte_compatible():
    # The historic scheme: sha256(f"{seed}:{name}")[:8].  Golden traces
    # bake these exact draws in; the fork feature must not move them.
    streams = RandomStreams(5)
    digest = hashlib.sha256(b"5:x").digest()
    expected = random.Random(int.from_bytes(digest[:8], "big")).random()
    assert streams.stream("x").random() == expected


def test_fork_paths_cannot_collide():
    root = RandomStreams(1)
    draws = {
        "root b:c": root.stream("b:c").random(),
        "fork(a) b:c": root.fork("a").stream("b:c").random(),
        "fork(a:b) c": root.fork("a:b").stream("c").random(),
        "fork(a) fork(b) c": root.fork("a").fork("b").stream("c").random(),
        "fork(a) b|c": root.fork("a").stream("b|c").random(),
    }
    assert len(set(draws.values())) == len(draws), draws


def test_fork_is_reproducible_from_seed_and_path():
    first = RandomStreams(9).fork("exec-3").stream("latency").random()
    second = RandomStreams(9).fork("exec-3").stream("latency").random()
    assert first == second
