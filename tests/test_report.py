import io
import json

import pytest

from rsbf import RunResult, TableArtifact, VerificationReport, write_jsonl


def test_report_validation():
    with pytest.raises(ValueError):
        VerificationReport("x", {}, "bogus", [], 0)
    with pytest.raises(ValueError):
        VerificationReport("x", {}, "pass", [("w", 1, 2)], 0)
    report = VerificationReport("x", {"n": 3}, "fail", [("w", 1, 2)], 5)
    assert not report.ok
    assert VerificationReport("x", {}, "skipped", [("max-n", 8, 9)], 0).ok


def test_report_json_shape():
    report = VerificationReport("bound", {"n": 5}, "pass", [], 7)
    text = report.to_json()
    assert " " not in text
    parsed = json.loads(text)
    assert list(parsed.keys()) == ["check", "params", "status", "witnesses", "elapsed_ms"]
    assert parsed["params"] == {"n": 5}


def test_write_jsonl_and_all_ok():
    reports = [
        VerificationReport("a", {}, "pass", [], 1),
        VerificationReport("b", {}, "fail", [("w", 0, 1)], 2),
    ]
    buf = io.StringIO()
    write_jsonl(reports, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1])["status"] == "fail"
    assert not RunResult(reports).ok
    assert RunResult(reports[:1]).ok


def test_table_artifact_roundtrip():
    art = TableArtifact("t", "n", ["4", "5"], [("a", [1, 2]), ("b", [-3, 4])])
    text = art.to_csv_text()
    assert text.endswith("\r\n")  # standard CSV line endings
    assert TableArtifact.from_csv_text("t", text) == art
    assert list(art.cells()) == [("a", "4", 1), ("a", "5", 2), ("b", "4", -3), ("b", "5", 4)]


def test_table_artifact_diff():
    art = TableArtifact("t", "n", ["4"], [("a", [1]), ("b", [2])])
    same = TableArtifact("t", "n", ["4"], [("a", [1]), ("b", [2])])
    assert art.diff(same) == []
    bent = TableArtifact("t", "n", ["4"], [("a", [1]), ("b", [9])])
    assert art.diff(bent) == [("b@4", 2, 9)]
    reshaped = TableArtifact("t", "n", ["4", "5"], [("a", [1, 1]), ("b", [2, 2])])
    witnesses = art.diff(reshaped)
    assert len(witnesses) == 1 and witnesses[0][0] == "layout"
