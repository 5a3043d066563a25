"""Alternating parent/change pairs of the commit ledger, with a verdict.

Runs ``benchmarks/ledger/run.py`` for each workload given in two
checkouts -- a parent tree and a change tree -- once per seed,
alternating which side goes first (within each workload, even-indexed
pairs run the parent first).  Each run is the ledger's own contract
command::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0

and only its last output line (the result JSON) is read.  Then it
prints one verdict block per workload:

* one row per pair: every wall-clock metric, parent -> change;
* per metric: each side's median [q1, q3], the change in the medians,
  how many pairs the change won, and whether its median stays inside
  the ``BENCHMARK.json`` bound;
* per metric: each pair's change/parent ratio, and the ratios' median
  [q1, q3];
* the verdict of the measuring rule for a claimed gain: at least ten
  pairs, the change better in at least nine tenths of them (ties count
  for neither), better on every held-out seed, and the medians apart by
  more than the parent's own quartile spread.

Every ``sim_*`` metric, ``served_share``, ``attempted`` and ``failed``
must be exactly equal within each pair: a wall-clock change must not
move the simulation.  Any difference, or a failed run, exits 1.

Usage (from the repo root)::

    python3 scripts/ledger_pairs.py --parent ../parent --change . \\
        --workload commit_matrix [contended_mix ...] \\
        --seeds 2 3 4 5 6 7 8 9 10 11 --held-out 97 [--seconds 24] \\
        [--json pairs.json] [--work-count [PROTOCOL]]

``--json`` writes every run, as ``{workload: [pair, ...]}``.

``--work-count [PROTOCOL]`` also counts, in each tree, the Python
opcodes and calls per commit of one smoke-size cell per workload at
seed 1 (that tree's ``count_cell`` in ``scripts/work_count.py``: the
workload's first cell, or PROTOCOL in its first phase), and prints them
under the workload's verdict.  It counts before any ledger run, so a
tree that cannot count fails at once.  The counts repeat exactly, so
they resolve a change in work that wall time on a shared machine cannot.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Result fields that must not move between parent and change.
COUNTS = ("attempted", "failed")


def run_ledger(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One ledger run in ``tree``; returns its result line, parsed."""
    command = [
        sys.executable, "benchmarks/ledger/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(
            f"{tree}: seed {seed} exited {done.returncode}\n{done.stderr[-2000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    return {"correct": result["correct"], **{k: result[k] for k in COUNTS}, "metrics": values}


#: Run in a tree with ``workload protocol`` as arguments: that tree's
#: ``scripts/work_count.py`` ``count_cell`` at seed 1, as one JSON line.
COUNT_CELL = """\
import json, sys
sys.path.insert(0, "scripts")
from work_count import WORKLOADS, count_cell
workload, protocol = sys.argv[1:]
first, phase = WORKLOADS[workload].cells()[0]
protocol = protocol or first
committed, counts = count_cell(workload, protocol, phase, 1)
print(json.dumps({
    "cell": f"{protocol}/{phase}",
    "committed": committed,
    "opcodes": sum(ops for ops, _ in counts.values()),
    "calls": sum(calls for _, calls in counts.values()),
}))
"""


def count_work(tree: pathlib.Path, workload: str, protocol: str) -> dict:
    """Opcodes and calls per commit of one smoke cell, counted in ``tree``.

    Calls that tree's ``count_cell`` at seed 1; an empty ``protocol``
    takes the workload's first cell.
    """
    command = [sys.executable, "-c", COUNT_CELL, workload, protocol]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: work count of {workload} failed\n{done.stderr[-2000:]}")
    found = json.loads(done.stdout.splitlines()[-1])
    per = max(found["committed"], 1)
    return {"cell": found["cell"], "opcodes": found["opcodes"] / per,
            "calls": found["calls"] / per}


def work_report(parent: dict, change: dict) -> str:
    """One line: parent -> change opcodes and calls per commit."""
    cells = "  ".join(
        f"{name} {parent[name]:.1f} -> {change[name]:.1f} "
        f"({(change[name] - parent[name]) / parent[name]:+.2%})"
        for name in ("opcodes", "calls")
    )
    return f"work per commit, {change['cell']} smoke seed 1: {cells}"


def must_match(name: str) -> bool:
    """Simulated figures: a wall-clock change leaves them exactly equal."""
    return name.startswith("sim_") or name == "served_share"


def mismatches(parent: dict, change: dict) -> list[str]:
    """Names of the fields that must be equal but differ in one pair."""
    names = [k for k in ("correct",) + COUNTS if parent[k] != change[k]]
    return names + [
        name for name, value in parent["metrics"].items()
        if must_match(name) and change["metrics"].get(name) != value
    ]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(
    parent: list[float],
    change: list[float],
    better: str,
    held_out: list[tuple[float, float]] = (),
) -> dict:
    """The measuring rule for a claimed gain over paired runs.

    ``parent[i]`` and ``change[i]`` are pair ``i``; ``better`` is
    ``"lower"`` or ``"higher"``; ``held_out`` holds (parent, change)
    pairs on seeds not used while the change was written.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    q1, parent_median, q3 = quartiles(parent)
    gap = sign * (parent_median - statistics.median(change))
    held_wins = sum(1 for p, c in held_out if sign * (p - c) > 0)
    if len(parent) < 10:
        outcome = "too few pairs"
    elif wins >= 0.9 * len(parent) and gap > q3 - q1 and held_wins == len(held_out):
        outcome = "met"
    else:
        outcome = "not met"
    return {
        "pairs": len(parent), "wins": wins, "gap": gap, "parent_spread": q3 - q1,
        "held_out": len(held_out), "held_out_wins": held_wins, "outcome": outcome,
    }


def ratios(parent: list[float], change: list[float]) -> list[float]:
    """Each pair's change/parent ratio (pairs whose parent reads 0 are skipped)."""
    return [c / p for p, c in zip(parent, change) if p]


def metric_report(
    metric: dict,
    parent: list[float],
    change: list[float],
    held_out: list[tuple[float, float]] = (),
) -> str:
    """The summary block of one ``BENCHMARK.json`` end-to-end metric."""
    rule = verdict(parent, change, metric["better"], held_out)
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
    delta = (cmed - pmed) / pmed if pmed else 0.0
    worse = delta if metric["better"] == "lower" else -delta
    bound = "inside" if worse <= metric["bound"] else "OUTSIDE"
    per_pair = ratios(parent, change)
    rq1, rmed, rq3 = quartiles(per_pair)
    return (
        f"{metric['name']} ({metric['unit']}, {metric['better']} is better)\n"
        f"  parent {pmed:.4g} [{pq1:.4g}, {pq3:.4g}]  change {cmed:.4g} "
        f"[{cq1:.4g}, {cq3:.4g}]  median {delta:+.1%}  "
        f"({bound} the {metric['bound']:.0%} bound)\n"
        f"  change/parent per pair: {' '.join(f'{r:.3f}' for r in per_pair)}"
        f"  median {rmed:.3f} [{rq1:.3f}, {rq3:.3f}]\n"
        f"  change better in {rule['wins']}/{rule['pairs']} pairs"
        f" and {rule['held_out_wins']}/{rule['held_out']} held out; median gap "
        f"{rule['gap']:.4g} vs parent spread {rule['parent_spread']:.4g}: "
        f"claim {rule['outcome']}"
    )


def moved(pairs: list[dict]) -> dict[int, list[str]]:
    """Seed -> the fields of its pair that must be equal but differ."""
    found = {p["seed"]: mismatches(p["parent"], p["change"]) for p in pairs}
    return {seed: names for seed, names in found.items() if names}


def run_pairs(
    sides: dict[str, pathlib.Path], workload: str, seeds: list[int], seconds: float
) -> list[dict]:
    """One pair per seed; even-indexed pairs run the parent first."""
    pairs = []
    for index, seed in enumerate(seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        runs = {side: run_ledger(sides[side], workload, seed, seconds) for side in order}
        pairs.append({"seed": seed, "first": order[0], **runs})
        print(f"{workload} pair {index}: seed {seed}, {order[0]} first", flush=True)
    return pairs


def workload_report(
    contract: dict, workload: str, seconds: float, pairs: list[dict], claimed: int
) -> str:
    """One workload's verdict block: every pair, then every timed metric.

    The first ``claimed`` pairs are the claim's; the rest are held out.
    """
    timed = [m for m in contract["end_to_end"] if not must_match(m["name"])]
    lines = [f"{workload}, --seconds {seconds:g}: parent -> change"]
    for pair in pairs:
        cells = "  ".join(
            f"{m['name']} {pair['parent']['metrics'][m['name']]:.4g} -> "
            f"{pair['change']['metrics'][m['name']]:.4g}" for m in timed
        )
        lines.append(f"  seed {pair['seed']:>4}  {cells}")
    for metric in timed:
        name = metric["name"]
        parent = [p["parent"]["metrics"][name] for p in pairs[:claimed]]
        change = [p["change"]["metrics"][name] for p in pairs[:claimed]]
        held_out = [
            (p["parent"]["metrics"][name], p["change"]["metrics"][name])
            for p in pairs[claimed:]
        ]
        lines.append("\n" + metric_report(metric, parent, change, held_out))
    shifted = moved(pairs)
    if shifted:
        lines.append(f"\nSIMULATION MOVED (must be identical): {shifted}")
    else:
        lines.append(
            "\nevery sim_* metric, served_share, attempted and failed identical in every pair"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=pathlib.Path, required=True)
    parser.add_argument("--change", type=pathlib.Path, required=True)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--held-out", type=int, nargs="*", default=[])
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--json", type=pathlib.Path, help="write every run here")
    parser.add_argument(
        "--work-count", nargs="?", const="", metavar="PROTOCOL",
        help="also count opcodes and calls per commit of one smoke cell per workload",
    )
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    # Counted first: a tree that cannot count fails before the long runs.
    counted = {
        workload: {side: count_work(tree, workload, args.work_count)
                   for side, tree in sides.items()}
        for workload in args.workload
    } if args.work_count is not None else {}
    runs = {
        workload: run_pairs(sides, workload, args.seeds + args.held_out, args.seconds)
        for workload in args.workload
    }
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1) + "\n")
    for workload, pairs in runs.items():
        print("\n" + workload_report(contract, workload, args.seconds, pairs, len(args.seeds)))
        if workload in counted:
            print(work_report(counted[workload]["parent"], counted[workload]["change"]))
    return 1 if any(moved(pairs) for pairs in runs.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
