"""Causally-linked spans built from the kernel trace.

The :class:`~repro.sim.tracing.TraceLog` is a flat record stream; this
module groups it into a forest of spans with parent links:

* ``gtxn`` -- one span per global transaction attempt, from its first
  ``gtxn_state`` record to its terminal state;
* ``subtxn`` -- one span per local transaction that belongs to a
  global one (``txn_state`` records carrying a ``gtxn`` detail),
  parented on its global span; the span also carries the §3 *in-doubt
  window* (ready -> terminal) when the local passed through the ready
  state;
* ``rpc`` -- one span per request/reply message pair (correlated via
  ``msg_id`` / ``reply_to``), parented on the global span when the
  message carries a ``gtxn_id``; one-way messages become zero-length
  spans;
* ``log_force`` -- one span per forced log write, emitted by
  :class:`~repro.storage.disk.StableDisk` only when force tracing is
  on (see ``FederationConfig.spans``), parented on the subtxn that
  forced when identifiable.

Span building is a pure function of the trace -- it never touches the
simulation and can run on a live or finished kernel alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.sim.tracing import TraceLog, TraceRecord

_TERMINAL_GLOBAL = ("committed", "aborted")
_TERMINAL_LOCAL = ("committed", "aborted")


@dataclass
class Span:
    """One causally-delimited interval of a run."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str  # "gtxn" | "subtxn" | "rpc" | "log_force"
    site: str
    start: float
    end: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:
        return (
            f"<Span {self.category}:{self.name} [{self.start:.2f},{self.end:.2f}] "
            f"site={self.site} parent={self.parent_id}>"
        )


class SpanForest:
    """The spans of one run plus query helpers."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self._by_id = {span.span_id: span for span in spans}

    def __iter__(self):
        return iter(self.spans)

    def __len__(self) -> int:
        return len(self.spans)

    def by_category(self, category: str) -> list[Span]:
        return [span for span in self.spans if span.category == category]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def find(self, category: str, name: str) -> Optional[Span]:
        for span in self.spans:
            if span.category == category and span.name == name:
                return span
        return None

    def breakdown(self, gtxn_id: str) -> dict[str, float]:
        """Latency breakdown of one global transaction.

        Returns the total simulated time its child spans spent per
        category plus the overall span duration; overlapping child
        spans are *not* deduplicated (parallel RPCs each count), so
        the categories measure work, not wall time.
        """
        root = self.find("gtxn", gtxn_id)
        if root is None:
            raise KeyError(f"no gtxn span {gtxn_id!r}")
        totals: dict[str, float] = {"total": root.duration}
        for span in self.spans:
            if span.parent_id is None:
                continue
            # Walk up to check ancestry (forests are tiny; clarity wins).
            cursor: Optional[Span] = span
            while cursor is not None and cursor.span_id != root.span_id:
                cursor = self._by_id.get(cursor.parent_id) if cursor.parent_id else None
            if cursor is None:
                continue
            totals[span.category] = totals.get(span.category, 0.0) + span.duration
        return totals


def build_spans(trace: TraceLog | Iterable[TraceRecord]) -> SpanForest:
    """Group trace records into a span forest."""
    records = list(trace)

    spans: list[Span] = []
    next_id = [0]

    def new_span(**kwargs: Any) -> Span:
        next_id[0] += 1
        span = Span(span_id=next_id[0], **kwargs)
        spans.append(span)
        return span

    last_time = records[-1].time if records else 0.0

    # -- pass 1: global transaction spans -------------------------------
    gtxn_spans: dict[str, Span] = {}
    for record in records:
        if record.category == "gtxn_state":
            gtxn_id = record.subject
            state = record.details.get("state")
            span = gtxn_spans.get(gtxn_id)
            if span is None:
                span = new_span(
                    parent_id=None, name=gtxn_id, category="gtxn",
                    site=record.site, start=record.time, end=record.time,
                    attrs={"state": state},
                )
                gtxn_spans[gtxn_id] = span
            span.end = max(span.end, record.time)
            span.attrs["state"] = state
        elif record.category == "gtxn_decision":
            span = gtxn_spans.get(record.subject)
            if span is not None:
                span.attrs["decision"] = record.details.get("decision")
                span.attrs["decision_time"] = record.time
    # A still-running transaction extends to the end of the trace.
    for span in gtxn_spans.values():
        if span.attrs.get("state") not in _TERMINAL_GLOBAL:
            span.end = max(span.end, last_time)

    # -- pass 2: subtransaction spans -----------------------------------
    subtxn_spans: dict[tuple[str, str], Span] = {}
    for record in records:
        if record.category != "txn_state":
            continue
        gtxn_id = record.details.get("gtxn")
        if gtxn_id is None:
            continue  # purely local work: not part of any global span
        key = (record.site, record.subject)
        state = record.details.get("state")
        span = subtxn_spans.get(key)
        if span is None:
            parent = gtxn_spans.get(gtxn_id)
            span = new_span(
                parent_id=parent.span_id if parent else None,
                name=record.subject, category="subtxn", site=record.site,
                start=record.time, end=record.time,
                attrs={"gtxn": gtxn_id, "state": state},
            )
            subtxn_spans[key] = span
        span.end = max(span.end, record.time)
        span.attrs["state"] = state
        if state == "ready" and "ready_time" not in span.attrs:
            span.attrs["ready_time"] = record.time
        if state in _TERMINAL_LOCAL and "ready_time" in span.attrs:
            # The §3 in-doubt window: voted ready, awaiting the decision.
            span.attrs["indoubt_window"] = record.time - span.attrs["ready_time"]
        if record.details.get("reason"):
            span.attrs["reason"] = record.details["reason"]

    # -- pass 3: message RPC spans --------------------------------------
    requests: dict[int, tuple[TraceRecord, Span]] = {}
    for record in records:
        if record.category != "message":
            continue
        msg_id = record.details.get("msg_id")
        reply_to = record.details.get("reply_to")
        if reply_to is not None and reply_to in requests:
            request_record, span = requests.pop(reply_to)
            span.end = record.time
            span.attrs["reply"] = record.subject
            continue
        gtxn_id = record.details.get("gtxn")
        parent = gtxn_spans.get(gtxn_id) if gtxn_id else None
        span = new_span(
            parent_id=parent.span_id if parent else None,
            name=record.subject, category="rpc", site=record.site,
            start=record.time, end=record.time,
            attrs={
                "dest": record.details.get("dest"),
                "gtxn": gtxn_id,
            },
        )
        if msg_id is not None:
            requests[msg_id] = (record, span)

    # -- pass 4: log force spans (opt-in detailed tracing) --------------
    for record in records:
        if record.category != "log_force":
            continue
        txn_id = record.details.get("txn")
        parent = subtxn_spans.get((record.site, txn_id)) if txn_id else None
        new_span(
            parent_id=parent.span_id if parent else None,
            name=record.subject, category="log_force", site=record.site,
            start=record.details.get("start", record.time), end=record.time,
            attrs={"records": record.details.get("records"), "txn": txn_id},
        )

    return SpanForest(spans)
