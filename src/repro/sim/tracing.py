"""Structured trace log.

Every interesting event in a run -- state transitions, messages, lock
grants, log forces, redo/undo executions -- is appended to the kernel's
:class:`TraceLog`.  Experiments and the figure-conformance tests query
the log instead of instrumenting the code under test.

The log stores one flat tuple per event, a *row*::

    (time, category, site, subject, keys, *values)

``keys`` is the tuple of detail names, interned once per distinct shape,
so a row costs one tuple and no dict.  :class:`TraceRecord` is the
read-side value, built from its row only when read:
:attr:`TraceLog.records` builds a fresh list of every record, and the
query helpers (:meth:`TraceLog.select`, :meth:`~TraceLog.first`,
:meth:`~TraceLog.last`, :meth:`~TraceLog.subjects`) filter rows on
category, site and subject before they build anything.

Records are rendered to text only when a *sink* is attached
(:meth:`TraceLog.attach_sink`) or a dump is requested -- the common
no-sink run pays nothing per event beyond the row itself.  Disabling
the log entirely (``trace.enabled = False``) turns :meth:`TraceLog.emit`
into an early return; hot callers additionally guard on
:attr:`TraceLog.enabled` to skip building the keyword payload at all.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel


class TraceRecord:
    """One timestamped event, as a reader of the log sees it.

    Built from its row on each read, so two reads of one event give
    equal records, not the same object.  Treat
    instances as immutable by convention.

    Attributes
    ----------
    time:
        Simulated time of the event.
    category:
        Coarse event class, e.g. ``"message"``, ``"txn_state"``,
        ``"lock"``, ``"log"``, ``"gtxn_state"``, ``"redo"``, ``"undo"``.
    site:
        Name of the node the event happened on (``"central"`` for the
        global system).
    subject:
        Identifier of the entity involved (transaction id, lock name,
        message type, ...).
    details:
        Free-form payload.
    """

    __slots__ = ("time", "category", "site", "subject", "details")

    def __init__(
        self,
        time: float,
        category: str,
        site: str,
        subject: str,
        details: Optional[dict[str, Any]] = None,
    ):
        self.time = time
        self.category = category
        self.site = site
        self.subject = subject
        self.details = {} if details is None else details

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.time == other.time
            and self.category == other.category
            and self.site == other.site
            and self.subject == other.subject
            and self.details == other.details
        )

    def __str__(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{self.time:10.3f}] {self.site:<12} {self.category:<10} {self.subject} {detail}"

    def __repr__(self) -> str:
        return (
            f"TraceRecord(time={self.time!r}, category={self.category!r}, "
            f"site={self.site!r}, subject={self.subject!r}, details={self.details!r})"
        )


#: One stored event: ``(time, category, site, subject, keys, *values)``.
Row = tuple


def _record(row: Row) -> TraceRecord:
    return TraceRecord(row[0], row[1], row[2], row[3], dict(zip(row[4], row[5:])))


class TraceLog:
    """Append-only event log with simple query helpers."""

    __slots__ = ("_kernel", "_rows", "_shapes", "enabled", "_sink")

    def __init__(self, kernel: "Kernel"):
        self._kernel = kernel
        self._rows: list[Row] = []
        # Detail-name tuples by value: every row of one shape shares one.
        self._shapes: dict[tuple[str, ...], tuple[str, ...]] = {}
        self.enabled = True
        self._sink: Optional[Callable[[str], None]] = None

    @property
    def records(self) -> list[TraceRecord]:
        """Every event so far, as a new list of records."""
        return [_record(row) for row in self._rows]

    def attach_sink(self, sink: Callable[[str], None]) -> None:
        """Stream formatted lines to ``sink`` as records are emitted.

        Formatting happens only while a sink is attached; remove it
        again with :meth:`detach_sink`.
        """
        self._sink = sink

    def detach_sink(self) -> None:
        self._sink = None

    def emit(self, category: str, site: str, subject: str, /, **details: Any) -> None:
        """Append a row stamped with the current simulated time.

        The first three parameters are positional-only, so a call does
        not match each detail name against them.
        """
        if not self.enabled:
            return
        keys = tuple(details)
        row = (
            self._kernel._now, category, site, subject,
            self._shapes.setdefault(keys, keys), *details.values(),
        )
        self._rows.append(row)
        if self._sink is not None:
            self._sink(str(_record(row)))

    def clear(self) -> None:
        """Forget every record emitted so far."""
        self._rows.clear()

    # -- queries -----------------------------------------------------------

    @staticmethod
    def _matching(
        rows: Iterable[Row],
        category: Optional[str] = None,
        site: Optional[str] = None,
        subject: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> Iterator[TraceRecord]:
        for row in rows:
            if category is not None and row[1] != category:
                continue
            if site is not None and row[2] != site:
                continue
            if subject is not None and row[3] != subject:
                continue
            record = _record(row)
            if predicate is not None and not predicate(record):
                continue
            yield record

    def select(
        self,
        category: Optional[str] = None,
        site: Optional[str] = None,
        subject: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
        start: int = 0,
    ) -> list[TraceRecord]:
        """Return records matching all the given filters, in time order.

        ``start`` skips the log's first ``start`` records, so a reader
        that remembers ``len(trace)`` can scan only what came since.
        """
        rows = self._rows[start:] if start else self._rows
        return list(self._matching(rows, category, site, subject, predicate))

    def first(self, **filters: Any) -> Optional[TraceRecord]:
        """First record matching ``select``'s filters but ``start``, or ``None``."""
        return next(self._matching(self._rows, **filters), None)

    def last(self, **filters: Any) -> Optional[TraceRecord]:
        """Last record matching ``select``'s filters but ``start``, or ``None``."""
        return next(self._matching(reversed(self._rows), **filters), None)

    def subjects(self, category: str) -> list[str]:
        """Distinct subjects seen for ``category``, in first-seen order."""
        seen: dict[str, None] = {}
        for row in self._rows:
            if row[1] == category:
                seen.setdefault(row[3], None)
        return list(seen)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_record, self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def dump(self, **filters: Any) -> str:
        """Human-readable rendering of matching records."""
        return "\n".join(str(r) for r in self.select(**filters))
