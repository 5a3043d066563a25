"""Per-field fingerprint of one finished federation run.

The golden harnesses pin each field on its own rather than one hash
over all of them, so a drift names the field that moved:

* ``trace`` -- sha256 of the rendered trace-record stream, one record
  per line;
* ``outcomes`` -- each global outcome, ``C`` committed or ``A`` aborted;
* ``events`` and ``end`` -- kernel events dispatched and the final
  simulated time;
* ``sent`` and ``envelopes`` -- network messages and envelopes sent;
* ``rng_probe`` -- one draw from a fresh named RNG stream (a probe of
  the stream states).
"""

from __future__ import annotations

import hashlib


def pin(fed, outcomes) -> dict:
    """The fields a golden harness compares for ``fed``'s finished run."""
    trace = "\n".join(str(record) for record in fed.kernel.trace.records)
    return {
        "trace": hashlib.sha256(trace.encode()).hexdigest(),
        "outcomes": "".join("C" if outcome.committed else "A" for outcome in outcomes),
        "events": fed.kernel.events_dispatched,
        "end": fed.kernel.now,
        "sent": fed.network.sent,
        "envelopes": fed.network.envelopes,
        "rng_probe": fed.kernel.rng.stream("golden-probe").random(),
    }
