"""Span building and exporters, against live federation runs."""

import json

import pytest

from repro.core.gtm import GTMConfig
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment
from repro.obs.export import (
    to_chrome_trace,
    to_prometheus_text,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.spans import build_spans


def run_fed(protocol="2pc", granularity="per_site", spans=True):
    preparable = protocol in ("2pc", "2pc-pa", "3pc")
    fed = Federation(
        [
            SiteSpec("s0", tables={"t0": {"x": 100}}, preparable=preparable),
            SiteSpec("s1", tables={"t1": {"x": 100}}, preparable=preparable),
        ],
        FederationConfig(
            seed=11, metrics=True, spans=spans,
            gtm=GTMConfig(protocol=protocol, granularity=granularity),
        ),
    )
    fed.run_transactions([
        {"operations": [increment("t0", "x", -10), increment("t1", "x", 10)],
         "name": "T0"},
        {"operations": [increment("t0", "x", -1), increment("t1", "x", 1)],
         "name": "T1", "delay": 40.0, "intends_abort": True},
    ])
    return fed


@pytest.fixture(scope="module")
def fed_2pc():
    return run_fed()


@pytest.fixture(scope="module")
def forest_2pc(fed_2pc):
    return fed_2pc.obs.span_forest()


class TestSpanForest:
    def test_every_gtxn_gets_a_root_span(self, forest_2pc):
        gtxns = forest_2pc.by_category("gtxn")
        assert len(gtxns) == 2
        for span in gtxns:
            assert span.parent_id is None
            assert span.duration > 0

    def test_gtxn_spans_carry_decision(self, forest_2pc):
        decisions = {
            s.name: s.attrs.get("decision")
            for s in forest_2pc.by_category("gtxn")
        }
        assert sorted(decisions.values()) == ["abort", "commit"]

    def test_subtxns_parented_on_their_gtxn(self, forest_2pc):
        subtxns = forest_2pc.by_category("subtxn")
        assert subtxns, "expected subtxn spans"
        gtxn_ids = {s.span_id for s in forest_2pc.by_category("gtxn")}
        for span in subtxns:
            assert span.parent_id in gtxn_ids
            assert span.site in ("s0", "s1")

    def test_2pc_subtxns_record_indoubt_window(self, forest_2pc):
        windows = [
            s.attrs["indoubt_window"]
            for s in forest_2pc.by_category("subtxn")
            if "indoubt_window" in s.attrs
        ]
        assert windows, "2PC locals must pass through the ready state"
        assert all(w > 0 for w in windows)

    def test_rpc_spans_pair_request_and_reply(self, forest_2pc):
        paired = [
            s for s in forest_2pc.by_category("rpc") if "reply" in s.attrs
        ]
        assert paired, "expected at least one request/reply pair"
        for span in paired:
            assert span.duration > 0  # reply came after the request

    def test_log_force_spans_present_and_parented(self, forest_2pc):
        forces = forest_2pc.by_category("log_force")
        assert forces, "span mode must emit log_force records"
        subtxn_ids = {s.span_id for s in forest_2pc.by_category("subtxn")}
        attributed = [s for s in forces if s.parent_id is not None]
        assert attributed, "commit forces should attach to their subtxn"
        for span in attributed:
            assert span.parent_id in subtxn_ids

    def test_setup_prefix_is_skipped(self, fed_2pc, forest_2pc):
        # Setup commits one local transaction per site; with the mark
        # applied none of those appear, and no span starts before t=0.
        for span in forest_2pc:
            assert span.start >= 0.0

    def test_breakdown_sums_child_categories(self, forest_2pc):
        root = forest_2pc.by_category("gtxn")[0]
        breakdown = forest_2pc.breakdown(root.name)
        assert breakdown["total"] == pytest.approx(root.duration)
        assert breakdown.get("rpc", 0) > 0
        with pytest.raises(KeyError):
            forest_2pc.breakdown("no-such-gtxn")

    def test_children_of_and_roots(self, forest_2pc):
        root = forest_2pc.by_category("gtxn")[0]
        children = forest_2pc.children_of(root)
        assert all(c.parent_id == root.span_id for c in children)
        assert root in forest_2pc.roots()

    def test_without_span_mode_no_log_force_spans(self):
        fed = run_fed(spans=False)
        forest = build_spans(fed.kernel.trace)
        assert forest.by_category("log_force") == []
        assert forest.by_category("gtxn")  # the rest still builds

    def test_empty_trace_builds_empty_forest(self):
        assert len(build_spans([])) == 0


class TestChromeExport:
    def test_schema_valid(self, forest_2pc):
        doc = to_chrome_trace(forest_2pc)
        assert validate_chrome_trace(doc) == []

    def test_json_serializable_and_round_trips(self, forest_2pc, tmp_path):
        path = tmp_path / "trace.json"
        doc = write_chrome_trace(forest_2pc, str(path))
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(doc))
        assert validate_chrome_trace(loaded) == []

    def test_sites_become_named_processes(self, forest_2pc):
        doc = to_chrome_trace(forest_2pc)
        names = {
            event["args"]["name"]
            for event in doc["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert {"site:central", "site:s0", "site:s1"} <= names

    def test_validator_catches_problems(self):
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]}) != []
        bad_phase = {"traceEvents": [
            {"name": "e", "ph": "Q", "pid": 1, "tid": 1},
        ]}
        assert any("phase" in p for p in validate_chrome_trace(bad_phase))
        unnamed_pid = {"traceEvents": [
            {"name": "e", "ph": "X", "pid": 7, "tid": 1, "ts": 0, "dur": 1},
        ]}
        assert any("process_name" in p for p in validate_chrome_trace(unnamed_pid))


class TestPrometheusExport:
    def test_text_format_shape(self, fed_2pc):
        text = to_prometheus_text(fed_2pc.obs.collect())
        lines = text.strip().splitlines()
        assert any(line.startswith("# TYPE repro_") for line in lines)
        assert 'protocol="2pc"' in text
        # Histogram series: cumulative buckets ending at +Inf, plus
        # _sum and _count.
        assert 'repro_lock_hold_bucket' in text
        assert 'le="+Inf"' in text
        assert "repro_lock_hold_sum" in text
        assert "repro_lock_hold_count" in text

    def test_cumulative_buckets_monotone(self, fed_2pc):
        text = to_prometheus_text(fed_2pc.obs.registry)
        last_by_series: dict[str, float] = {}
        for line in text.splitlines():
            if "_bucket{" not in line:
                continue
            series, value = line.rsplit(" ", 1)
            series = series.split(',le="')[0]
            count = float(value)
            assert count >= last_by_series.get(series, 0.0)
            last_by_series[series] = count
