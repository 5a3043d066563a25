"""The library runs on the standard library alone.

A fresh interpreter imports the public entry points; every top-level
module those imports load must be ``repro`` itself or part of the
standard library.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

ENTRY_POINTS = [
    "repro",
    "repro.integration.federation",
    "repro.core.invariants",
    "repro.faults.chaos",
    "repro.check",
    "repro.obs",
]

PROBE = f"""
import json, sys
before = set(sys.modules)
for name in {ENTRY_POINTS!r}:
    __import__(name)
print(json.dumps(sorted({{m.split(".")[0] for m in set(sys.modules) - before}})))
"""


def test_entry_points_import_only_the_standard_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    loaded = json.loads(probe.stdout)
    assert "repro" in loaded
    foreign = [m for m in loaded if m != "repro" and m not in sys.stdlib_module_names]
    assert foreign == []
