"""Replayable counterexample traces (``.repro.json``).

A :class:`ReproTrace` is everything needed to re-execute one explored
execution in a fresh process: the scenario spec, the schedule choices,
the injected crash points, and (informationally) the violations the
original run observed.  Serialization is canonical -- sorted keys,
fixed indentation, trailing newline -- so the same counterexample
always produces byte-identical files, which the determinism tests and
CI artifact diffing rely on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.check.engine import ExecutionResult, replay_execution
from repro.check.scenarios import CheckSpec
from repro.faults.injector import CrashPoint

FORMAT_VERSION = 1


@dataclass
class ReproTrace:
    """One replayable execution, round-trippable through JSON."""

    spec: CheckSpec
    schedule: list[int] = field(default_factory=list)
    crashes: list[CrashPoint] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    version: int = FORMAT_VERSION

    @classmethod
    def from_result(cls, spec: CheckSpec, result: ExecutionResult) -> "ReproTrace":
        return cls(
            spec=spec,
            schedule=list(result.choices),
            crashes=list(result.crashes),
            violations=result.violations,
        )

    def to_json_bytes(self) -> bytes:
        document = {
            "version": self.version,
            "spec": self.spec.to_dict(),
            "schedule": self.schedule,
            "crashes": [crash.to_dict() for crash in self.crashes],
            "violations": self.violations,
        }
        return (json.dumps(document, sort_keys=True, indent=2) + "\n").encode()

    @classmethod
    def from_json_bytes(cls, data: bytes) -> "ReproTrace":
        document = json.loads(data.decode())
        version = document.get("version", 0)
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported trace version {version}")
        return cls(
            spec=CheckSpec.from_dict(document["spec"]),
            schedule=list(document["schedule"]),
            crashes=[CrashPoint.from_dict(c) for c in document.get("crashes", [])],
            violations=list(document.get("violations", [])),
            version=version,
        )

    def write(self, path: str) -> None:
        with open(path, "wb") as handle:
            handle.write(self.to_json_bytes())

    @classmethod
    def read(cls, path: str) -> "ReproTrace":
        with open(path, "rb") as handle:
            return cls.from_json_bytes(handle.read())

    def replay(self) -> ExecutionResult:
        """Re-execute the trace deterministically and re-audit it."""
        return replay_execution(
            self.spec, list(self.schedule), crashes=tuple(self.crashes)
        )


def write_counterexample(
    path: str, spec: CheckSpec, result: ExecutionResult
) -> ReproTrace:
    """Persist a violating execution as a ``.repro.json`` file."""
    trace = ReproTrace.from_result(spec, result)
    trace.write(path)
    return trace
