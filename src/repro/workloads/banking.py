"""Federated banking workload.

The canonical integration scenario: each existing database system is a
bank keeping its own ``accounts`` table; global transactions transfer
money between banks (two commutative increments) or audit balances
(reads).  Money conservation is the end-to-end atomicity invariant: no
matter which protocol, which faults and which abort decisions, the
total balance over all banks must equal the initial total.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.localdb.config import LocalDBConfig
from repro.mlt.actions import Operation


def account_table(site_index: int) -> str:
    return f"accounts_{site_index}"


def build_banking_federation(
    n_sites: int = 3,
    accounts_per_site: int = 8,
    initial_balance: int = 1000,
    config: Optional[FederationConfig] = None,
    db_config: Optional[LocalDBConfig] = None,
    preparable: bool = False,
) -> Federation:
    """A federation of ``n_sites`` banks with funded accounts."""
    specs = []
    for i in range(n_sites):
        rows = {f"acct{i}_{j}": initial_balance for j in range(accounts_per_site)}
        specs.append(
            SiteSpec(
                f"bank_{i}",
                tables={account_table(i): rows},
                config=db_config,
                preparable=preparable,
            )
        )
    return Federation(specs, config)


def all_accounts(n_sites: int, accounts_per_site: int) -> list[tuple[str, str]]:
    """(table, key) pairs of every account in the federation."""
    return [
        (account_table(i), f"acct{i}_{j}")
        for i in range(n_sites)
        for j in range(accounts_per_site)
    ]


def transfer(
    rng: random.Random,
    n_sites: int,
    accounts_per_site: int,
    amount_range: tuple[int, int] = (1, 50),
    cross_site: bool = True,
) -> list[Operation]:
    """A random transfer: debit one account, credit another."""
    src_site = rng.randrange(n_sites)
    dst_site = rng.randrange(n_sites)
    if cross_site and n_sites > 1:
        while dst_site == src_site:
            dst_site = rng.randrange(n_sites)
    src_key = f"acct{src_site}_{rng.randrange(accounts_per_site)}"
    dst_key = f"acct{dst_site}_{rng.randrange(accounts_per_site)}"
    if (src_site, src_key) == (dst_site, dst_key):
        dst_key = f"acct{dst_site}_{(int(dst_key.rsplit('_', 1)[1]) + 1) % accounts_per_site}"
    amount = rng.randint(*amount_range)
    return [
        Operation("increment", account_table(src_site), src_key, -amount),
        Operation("increment", account_table(dst_site), dst_key, amount),
    ]


def balance_audit(n_sites: int, accounts_per_site: int, sample: int = 4,
                  rng: Optional[random.Random] = None) -> list[Operation]:
    """A read-only audit over a sample of accounts."""
    accounts = all_accounts(n_sites, accounts_per_site)
    chosen = rng.sample(accounts, min(sample, len(accounts))) if rng else accounts[:sample]
    return [Operation("read", table, key) for table, key in chosen]

