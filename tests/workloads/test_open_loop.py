"""Open-loop driver: Poisson arrivals, admission window, backpressure."""

import math

import pytest

from repro.core.gtm import GTMConfig
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment
from repro.workloads.open_loop import OpenLoopDriver, OpenLoopSpec

N_SITES = 2


def build(coordinators: int = 1, seed: int = 9) -> Federation:
    specs = [
        SiteSpec(
            f"s{i}",
            tables={f"t{i}": {f"k{j}": 100 for j in range(64)}},
            preparable=True,
            buckets=64,
        )
        for i in range(N_SITES)
    ]
    return Federation(
        specs,
        FederationConfig(
            seed=seed,
            coordinators=coordinators,
            gtm=GTMConfig(protocol="2pc", granularity="per_site"),
        ),
    )


def traffic(n_txns: int) -> list[dict]:
    return [
        {
            "operations": [
                increment("t0", f"k{n % 64}", -1),
                increment("t1", f"k{n % 64}", 1),
            ]
        }
        for n in range(n_txns)
    ]


def test_spec_validation():
    with pytest.raises(ValueError):
        OpenLoopSpec(arrival_rate=0.0)
    with pytest.raises(ValueError):
        OpenLoopSpec(window_per_coordinator=0)
    with pytest.raises(ValueError):
        OpenLoopSpec(slo_p99=-1.0)
    with pytest.raises(ValueError):
        OpenLoopSpec(slo_window=2)
    with pytest.raises(ValueError):
        OpenLoopSpec(slo_min_scale=0.0)


def test_accounting_balances():
    fed = build()
    driver = OpenLoopDriver(
        fed, OpenLoopSpec(arrival_rate=0.5, n_txns=20, window_per_coordinator=4)
    )
    result = driver.run(traffic(20))
    assert result.submitted == result.admitted == 20
    assert result.completed == 20
    assert result.committed + result.aborted == 20
    assert result.interrupted == 0
    assert result.shed == 0
    assert len(result.response_times) == result.committed
    assert result.makespan > 0
    assert result.throughput > 0


def test_window_is_enforced():
    fed = build()
    driver = OpenLoopDriver(
        fed,
        OpenLoopSpec(arrival_rate=5.0, n_txns=30, window_per_coordinator=2),
    )
    result = driver.run(traffic(30))
    assert result.max_in_flight <= 2
    assert result.queued > 0  # the overload actually queued arrivals
    assert result.total_queue_wait > 0
    assert result.committed + result.aborted == 30


def test_queue_limit_sheds_overflow():
    fed = build()
    driver = OpenLoopDriver(
        fed,
        OpenLoopSpec(
            arrival_rate=5.0,
            n_txns=30,
            window_per_coordinator=1,
            queue_limit=2,
        ),
    )
    result = driver.run(traffic(30))
    assert result.shed > 0
    assert result.max_queue_depth <= 2
    # Shed arrivals never ran; everything admitted still completed.
    assert result.completed == 30 - result.shed
    assert result.committed + result.aborted == result.completed


def test_window_scales_with_live_coordinators():
    wide = OpenLoopSpec(arrival_rate=5.0, n_txns=30, window_per_coordinator=2)
    narrow_run = OpenLoopDriver(build(coordinators=1), wide).run(traffic(30))
    wide_run = OpenLoopDriver(build(coordinators=3), wide).run(traffic(30))
    assert narrow_run.max_in_flight <= 2
    assert wide_run.max_in_flight <= 6
    assert wide_run.max_in_flight > narrow_run.max_in_flight


def test_deterministic_replay():
    runs = []
    for _ in range(2):
        fed = build(seed=21)
        driver = OpenLoopDriver(
            fed,
            OpenLoopSpec(arrival_rate=2.0, n_txns=25, window_per_coordinator=3),
        )
        runs.append(driver.run(traffic(25)).as_dict())
    assert runs[0] == runs[1]


def test_coordinator_crash_counts_interrupted():
    fed = build(coordinators=2)
    driver = OpenLoopDriver(
        fed,
        OpenLoopSpec(arrival_rate=1.0, n_txns=24, window_per_coordinator=4),
    )
    fed.crash_site(fed.coordinators[1].name, at=6.0)
    result = driver.run(traffic(24))
    fed.run()  # drain failover
    # Interrupted in-flight txns are classified, not miscounted as
    # aborts; every arrival still reaches a terminal driver state.
    assert result.completed == 24
    assert result.committed + result.aborted + result.interrupted == 24
    assert result.interrupted >= 1
    assert fed.pool.unresolved_orphans() == []


def test_run_generated_feeds_generator_transactions():
    from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

    fed = build(seed=33)
    objects = [(f"t{i}", f"k{j}") for i in range(N_SITES) for j in range(64)]
    generator = WorkloadGenerator(
        WorkloadSpec(
            ops_per_txn=2, read_fraction=0.5, increment_fraction=0.5,
            zipf_s=0.7,
        ),
        objects,
    )
    driver = OpenLoopDriver(
        fed, OpenLoopSpec(arrival_rate=0.5, n_txns=20, window_per_coordinator=4)
    )
    result = driver.run_generated(generator)
    assert result.submitted == result.admitted == 20
    assert result.committed + result.aborted == result.completed == 20


def test_corrected_quantile_censors_shed_arrivals():
    from repro.workloads.open_loop import OpenLoopResult

    result = OpenLoopResult()
    result.served_latencies = [float(i) for i in range(1, 100)]  # 99 served
    assert result.quantile_admitted_or_shed(0.99) == 99.0
    # One shed arrival: exactly 1% of traffic censored above every
    # served latency, so the p99 lands in the shed tail.
    result.shed = 1
    assert math.isinf(result.quantile_admitted_or_shed(0.99))
    assert result.quantile_admitted_or_shed(0.50) == 51.0
    assert result.as_dict()["p99_admitted_or_shed"] is None
    # No traffic at all reports 0, not a crash.
    assert OpenLoopResult().quantile_admitted_or_shed(0.99) == 0.0


def test_corrected_quantile_counts_aborts_as_served():
    from repro.workloads.open_loop import OpenLoopResult

    result = OpenLoopResult()
    result.response_times = [1.0]  # one commit...
    result.served_latencies = [1.0, 50.0]  # ...and one slow abort
    # The committed-only p99 hides the abort; the corrected one serves
    # every admitted arrival's latency.
    assert result.p99 == 1.0
    assert result.p99_admitted_or_shed == 50.0


def test_shedding_cannot_flatter_the_corrected_p99():
    """Regression for the survivorship bias in the latency report.

    The seed's p99 covered committed transactions only, so a driver
    that shed 90% of its traffic reported a *better* p99 than one that
    served everything.  The corrected figure censors every shed above
    every served latency: shedding can only push it up.
    """
    fed = build()
    driver = OpenLoopDriver(
        fed,
        OpenLoopSpec(
            arrival_rate=5.0, n_txns=30, window_per_coordinator=1,
            queue_limit=2,
        ),
    )
    result = driver.run(traffic(30))
    assert result.shed > 0
    assert result.p99 < math.inf  # the flattering figure
    # > 1% of arrivals shed: no finite latency describes the p99.
    assert result.shed / (result.shed + result.completed) > 0.01
    assert math.isinf(result.p99_admitted_or_shed)
    assert result.as_dict()["p99_admitted_or_shed"] is None


def flash_crowd_run(slo_p99: float, n_txns: int = 160):
    fed = build(seed=9)
    spec = OpenLoopSpec(
        arrival_rate=0.35,
        n_txns=n_txns,
        window_per_coordinator=6,
        arrival="flash_crowd",
        arrival_params={"at": 60.0, "spike_factor": 10.0, "decay": 60.0},
        slo_p99=slo_p99,
    )
    return OpenLoopDriver(fed, spec).run(traffic(n_txns))


def served_p99(result) -> float:
    ordered = sorted(result.served_latencies)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def test_slo_controller_holds_p99_under_flash_crowd():
    uncontrolled = flash_crowd_run(slo_p99=0.0)
    controlled = flash_crowd_run(slo_p99=80.0)
    # The spike buries the uncontrolled run; the controller sheds its
    # way to the target instead of serving everyone late.
    assert served_p99(uncontrolled) > 3 * 80.0
    assert served_p99(controlled) <= 80.0 * 1.1
    assert controlled.slo_sheds > 0
    assert controlled.shed == controlled.slo_sheds
    # Shedding is bounded: the controller rides the spike out, it does
    # not collapse into dropping everything.
    shed_fraction = controlled.shed / (controlled.shed + controlled.completed)
    assert shed_fraction < 0.6
    assert controlled.committed > 0.4 * controlled.completed
    # Every arrival is accounted for -- served, shed, or interrupted.
    assert (
        controlled.completed + controlled.interrupted + controlled.shed
        == 160
    )


def test_slo_controller_is_deterministic():
    runs = [flash_crowd_run(slo_p99=80.0, n_txns=80).as_dict() for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0]["slo_sheds"] > 0


def test_slo_disabled_leaves_driver_inert():
    fed = build()
    driver = OpenLoopDriver(
        fed,
        OpenLoopSpec(arrival_rate=5.0, n_txns=30, window_per_coordinator=2),
    )
    result = driver.run(traffic(30))
    assert result.slo_sheds == 0
    assert result.slo_throttles == 0
    assert result.min_admission_scale == 1.0
    assert result.completed == 30


def test_run_generated_deterministic():
    from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

    runs = []
    for _ in range(2):
        fed = build(seed=34)
        objects = [(f"t{i}", f"k{j}") for i in range(N_SITES) for j in range(64)]
        generator = WorkloadGenerator(WorkloadSpec(ops_per_txn=2, zipf_s=0.9), objects)
        driver = OpenLoopDriver(
            fed,
            OpenLoopSpec(arrival_rate=1.0, n_txns=15, window_per_coordinator=3),
        )
        runs.append(driver.run_generated(generator).as_dict())
    assert runs[0] == runs[1]
