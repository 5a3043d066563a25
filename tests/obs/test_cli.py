"""The ``python -m repro`` command line."""

import json

import pytest

from repro.__main__ import main
from repro.core.protocols import protocol_names
from repro.obs import validate_chrome_trace


class TestSingleProtocolRun:
    def test_report_flag_prints_cost_table(self, capsys):
        main(["--protocol", "before", "--txns", "2", "--report"])
        out = capsys.readouterr().out
        assert "2/2 committed" in out
        assert "atomicity OK" in out
        assert "extra" in out and "hold(mean)" in out
        assert "before" in out

    def test_trace_out_writes_valid_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        main(["--protocol", "2pc", "--txns", "2", "--trace-out", str(path)])
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        assert any(event["ph"] == "X" for event in doc["traceEvents"])
        assert "trace events" in capsys.readouterr().out

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_every_protocol_exports_a_schema_valid_trace(self, protocol, tmp_path):
        path = tmp_path / "trace.json"
        main(["--protocol", protocol, "--txns", "4", "--seed", "7",
              "--report", "--trace-out", str(path)])
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_sites_and_seed_accepted(self, capsys):
        main(["--protocol", "after", "--sites", "3", "--txns", "3",
              "--seed", "99", "--report"])
        out = capsys.readouterr().out
        assert "3/3 committed over 3 sites (seed 99)" in out

    def test_plain_run_without_observability(self, capsys):
        main(["--protocol", "before", "--txns", "2"])
        out = capsys.readouterr().out
        assert "committed" in out
        assert "hold(mean)" not in out


class TestArgumentValidation:
    def test_report_without_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["--report"])

    def test_trace_out_without_protocol_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--trace-out", str(tmp_path / "t.json")])

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["--protocol", "4pc"])

    def test_too_few_sites_rejected(self):
        with pytest.raises(SystemExit):
            main(["--protocol", "2pc", "--sites", "1"])
