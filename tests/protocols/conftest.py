"""Helpers for protocol-level tests."""

from __future__ import annotations


from repro.core.gtm import GTMConfig
from repro.core.protocols import preparable_protocols
from repro.integration.federation import Federation, FederationConfig, SiteSpec


def build_fed(
    protocol: str,
    granularity: str = "per_site",
    seed: int = 7,
    n_sites: int = 2,
    log_placement: str = "indb",
    msg_timeout: float = 30.0,
    poll: float = 5.0,
    **site_kwargs,
) -> Federation:
    """Two-site (by default) federation with one funded table per site."""
    preparable = protocol in preparable_protocols()
    specs = [
        SiteSpec(
            f"s{i}",
            tables={f"t{i}": {"x": 100, "y": 50}},
            preparable=preparable,
            **site_kwargs,
        )
        for i in range(n_sites)
    ]
    return Federation(
        specs,
        FederationConfig(
            seed=seed,
            log_placement=log_placement,
            gtm=GTMConfig(
                protocol=protocol,
                granularity=granularity,
                msg_timeout=msg_timeout,
                status_poll_interval=poll,
            ),
        ),
    )


def submit_and_run(fed, operations, **kwargs):
    process = fed.submit(operations, **kwargs)
    fed.run()
    return process.value


def submit_delayed(fed, operations, delay, name=None, **kwargs):
    """Submit ``operations`` after ``delay`` (deterministic ordering)."""

    def later():
        yield delay
        outcome = yield fed.submit(operations, name=name, **kwargs)
        return outcome

    return fed.kernel.spawn(later(), name=f"delayed:{name}")
