"""Compare two ledger result files: base A against candidate B.

    PYTHONPATH=src python -m benchmarks.ledger.compare A.json B.json

One row per (workload, end-to-end metric): base value, B/A ratio, the
metric's bound and a verdict --

* ``worse``       B is worse than A by more than the bound;
* ``better``      B is better than A by more than the bound;
* ``same``        within the bound either way;
* ``unresolved``  a wall metric whose rounds' quartile spread (either
                  file) is wider than the bound, so a move of the
                  bound's size could not have been seen.

Simulated metrics and counts are exact, so they are also compared for
equality: one row per count that differs (``changed``).  The exit code
is non-zero when any row is ``worse``.  The files are the ``--out``
documents of ``benchmarks.ledger`` (all workloads or a single one).
"""

from __future__ import annotations

import json
import sys

from benchmarks.ledger.spec import END_TO_END, per_layer

#: Units of the per-layer metrics that are exact (counts and simulated
#: time); everything in ``us``, ``1/s``, ``ratio`` or ``share`` is a
#: wall-clock reading or derived from one.  The profiled pass's call
#: counts are left out too: dict probes call ``__eq__`` on hash
#: collisions, which move with the interpreter's string-hash seed.
EXACT_UNITS = ("count", "u")
INEXACT_SUFFIX = ".calls_in_per_commit"


def workloads_of(document: dict) -> dict[str, dict]:
    return document.get("workloads") or {document["workload"]: document}


def verdict(metric, base: float, new: float, spreads: list[dict]) -> str:
    for s in spreads:
        if s["median"] and (s["q3"] - s["q1"]) / s["median"] > metric.bound:
            return "unresolved"
    if base == new:
        return "same"
    worse_by = (new - base) / abs(base) if metric.better == "lower" else (base - new) / abs(base)
    if worse_by > metric.bound:
        return "worse"
    return "better" if worse_by < -metric.bound else "same"


def compare(a: dict, b: dict) -> list[dict]:
    rows = []
    base_all, new_all = workloads_of(a), workloads_of(b)
    for workload in base_all:
        if workload not in new_all:
            continue
        base, new = base_all[workload], new_all[workload]
        if base["input_sha256"] != new["input_sha256"]:
            rows.append({"workload": workload, "metric": "input_sha256",
                         "verdict": "changed", "base": base["input_sha256"][:12],
                         "new": new["input_sha256"][:12]})
        for metric in END_TO_END:
            x, y = base["end_to_end"][metric.name], new["end_to_end"][metric.name]
            spreads = [
                r["wall_spread"][metric.name] for r in (base, new)
                if metric.name in r["wall_spread"]
            ]
            rows.append({
                "workload": workload, "metric": metric.name, "base": x, "new": y,
                "ratio": y / x if x else float("nan"), "bound": metric.bound,
                "verdict": verdict(metric, x, y, spreads),
            })
        for metric in per_layer():
            if metric.unit not in EXACT_UNITS or metric.name.endswith(INEXACT_SUFFIX):
                continue
            x = base.get("per_layer", {}).get(metric.name)
            y = new.get("per_layer", {}).get(metric.name)
            if x is not None and y is not None and x != y:
                rows.append({"workload": workload, "metric": metric.name,
                             "base": x, "new": y, "verdict": "changed"})
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':20s} {'metric':42s} {'base':>12s} {'ratio':>8s} {'bound':>6s}  verdict"]
    for row in rows:
        base = row["base"] if isinstance(row["base"], str) else f"{row['base']:.6g}"
        ratio = f"{row['ratio']:.4f}" if "ratio" in row else "-"
        bound = f"{row['bound']:.3f}" if "bound" in row else "-"
        lines.append(
            f"{row['workload']:20s} {row['metric']:42s} {base:>12s} {ratio:>8s} "
            f"{bound:>6s}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    rows = compare(*documents)
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
