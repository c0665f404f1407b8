"""Smoke test: the fixture health report still runs against the library."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "fixture_report.py"


def test_fixture_report_runs(capsys):
    spec = importlib.util.spec_from_file_location("fixture_report", SCRIPT)
    fixture_report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixture_report)
    assert fixture_report.main([]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ALL OK"
